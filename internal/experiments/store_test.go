package experiments

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/store"
)

// TestStoreCrossProcessSweep: the end-to-end sweep against a shared
// on-disk store. A cold engine computes and writes through; fresh engines
// ("second processes" — nothing shared but the directory) reproduce the
// digest byte-identically at -j 1 and -j 8, answering every evaluation
// from the store: no build and no store miss.
func TestStoreCrossProcessSweep(t *testing.T) {
	dir := t.TempDir()
	openDisk := func() *store.Disk {
		d, err := store.Open(dir, flit.EngineVersion)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	cold := NewEngine(8)
	cold.AttachStore(openDisk())
	want, err := cold.SweepDigest()
	if err != nil {
		t.Fatal(err)
	}
	if m := cold.CacheMetrics(); !m.Store.Enabled || m.Store.Puts == 0 {
		t.Fatalf("cold sweep persisted nothing: %+v", m.Store)
	}

	for _, j := range []int{1, 8} {
		warm := NewEngine(j)
		warm.AttachStore(openDisk())
		got, err := warm.SweepDigest()
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if got != want {
			t.Errorf("j=%d: store-warmed sweep digest differs from the cold run", j)
		}
		m := warm.CacheMetrics()
		if m.Store.Hits == 0 {
			t.Errorf("j=%d: store-warmed sweep recorded no store hits: %+v", j, m.Store)
		}
		if m.Builds != 0 || m.Store.Misses != 0 {
			t.Errorf("j=%d: store-warmed sweep built %d executables and missed the store %d times, want 0/0",
				j, m.Builds, m.Store.Misses)
		}
	}
}
