package coord_test

import (
	"fmt"
	"testing"

	"repro/internal/coord"
)

// BenchmarkCoordHeartbeat times one Heartbeat on a held lease in a
// single-campaign tenancy of 64, 1,024 and 8,192 shards. A heartbeat
// renews the lease in memory and writes no journal, so the cost should
// not grow with the tenancy.
func BenchmarkCoordHeartbeat(b *testing.B) {
	for _, shards := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c, err := coord.New(b.TempDir(), coord.Options{})
			if err != nil {
				b.Fatal(err)
			}
			id, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			g, state, err := c.Lease(id, "bench")
			if err != nil || state != coord.Granted {
				b.Fatalf("lease: state %v, err %v", state, err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Heartbeat(id, "bench", g.LeaseID, g.Shard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
