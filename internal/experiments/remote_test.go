package experiments

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/flit"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// TestRemoteSweepAcrossMachines: the end-to-end sweep warmed across a
// "machine" boundary, one cold computation paying for every scenario. A
// cold tiered engine (-store DIR -remote URL shape) writes the sweep
// through a local Disk cache AND over the wire into a served shared
// store. Then: fresh remote-only engines sharing nothing but the URL
// reproduce the digest at -j 1 and -j 8 through a fault script (503s,
// stalls, truncated and corrupted records, foreign fences) — faults
// must cost retries and recomputation, never the digest and never the
// run — and a local-tier-only engine proves the write-through filled
// the local cache too.
func TestRemoteSweepAcrossMachines(t *testing.T) {
	shared, err := store.Open(t.TempDir(), flit.EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	flaky := storetest.NewFlaky(store.Handler(shared))
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	opts := &store.RemoteOptions{
		Attempts:       4,
		BaseDelay:      time.Millisecond,
		MaxDelay:       4 * time.Millisecond,
		AttemptTimeout: 60 * time.Millisecond,
		Deadline:       5 * time.Second,
	}
	newClient := func() *store.Remote {
		r, err := store.NewRemote(srv.URL, flit.EngineVersion, opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	localDir := t.TempDir()
	openLocal := func() *store.Disk {
		d, err := store.Open(localDir, flit.EngineVersion)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	cold := NewEngine(8)
	cold.AttachStore(store.Tier(openLocal(), newClient()))
	want, err := cold.SweepDigest()
	if err != nil {
		t.Fatal(err)
	}
	if m := cold.CacheMetrics(); !m.Store.Enabled || m.Store.Puts == 0 {
		t.Fatalf("cold sweep persisted nothing: %+v", m.Store)
	}

	for _, j := range []int{1, 8} {
		flaky.Push(storetest.Err503, storetest.Stall, storetest.Truncate,
			storetest.Corrupt, storetest.WrongEngine, storetest.Err503)
		warm := NewEngine(j)
		remote := newClient()
		warm.AttachStore(remote) // URL only: no local dir, no manifest
		got, err := warm.SweepDigest()
		if err != nil {
			t.Fatalf("j=%d: faulted sweep failed instead of recomputing: %v", j, err)
		}
		if got != want {
			t.Errorf("j=%d: remote-warmed sweep digest differs from the cold run", j)
		}
		rm := remote.Metrics()
		if rm.Hits == 0 {
			t.Errorf("j=%d: remote-warmed sweep recorded no remote hits: %+v", j, rm)
		}
		if rm.Errors == 0 || rm.Retries == 0 {
			t.Errorf("j=%d: fault script left no transport trace: %+v", j, rm)
		}
	}

	// The cold write-through put every result in the local tier as well:
	// drop the remote and the local directory alone must carry the sweep.
	localOnly := NewEngine(4)
	localOnly.AttachStore(openLocal())
	got, err := localOnly.SweepDigest()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("local-tier-only sweep differs after the tiered cold run")
	}
	if m := localOnly.CacheMetrics(); m.Store.Hits == 0 {
		t.Errorf("local tier served no hits: %+v", m.Store)
	}
}
