package flit

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// remoteOpts keeps the hostile-transport tests fast: millisecond
// backoffs, an attempt timeout shorter than the harness's stall, and a
// bounded deadline.
func remoteOpts() *store.RemoteOptions {
	return &store.RemoteOptions{
		Attempts:       4,
		BaseDelay:      time.Millisecond,
		MaxDelay:       4 * time.Millisecond,
		AttemptTimeout: 60 * time.Millisecond,
		Deadline:       5 * time.Second,
	}
}

// TestRemoteCrossMachineMatrixBuildsNothing is the remote tentpole's
// acceptance pin, the cross-machine form of
// TestStoreCrossProcessMatrixBuildsNothing: a "machine" holding the Disk
// store serves it over HTTP, a second process configured with ONLY the
// URL — no -warm-start manifest, no local -store directory — reproduces
// the full matrix byte-identically with zero materialized builds, at
// j∈{1,8} under -race.
func TestRemoteCrossMachineMatrixBuildsNothing(t *testing.T) {
	matrix := comp.Matrix()

	// "Machine 1": a Disk store behind `flit store serve`'s handler.
	disk, err := store.Open(t.TempDir(), EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.Handler(disk))
	defer srv.Close()

	newClient := func() *store.Remote {
		r, err := store.NewRemote(srv.URL, EngineVersion, remoteOpts())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// Cold run, remote tier only: computes everything, writes through the
	// wire into the served store.
	cold := newSuite()
	cold.Cache = NewCache()
	cold.Cache.SetStore(newClient())
	coldRes, err := cold.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(coldRes)
	if m := cold.Cache.Metrics(); m.Builds == 0 || m.Store.Puts == 0 {
		t.Fatalf("cold run metrics %+v — nothing computed or persisted remotely", m)
	}

	for _, j := range []int{1, 8} {
		warm := newSuite()
		warm.Cache = NewCache()
		remote := newClient()
		warm.Cache.SetStore(remote)
		if j > 1 {
			warm.Pool = exec.New(j)
		}
		warmRes, err := warm.RunMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixFingerprint(warmRes); got != want {
			t.Errorf("j=%d: remote-warmed matrix differs from the cold run", j)
		}
		m := warm.Cache.Metrics()
		if m.Builds != 0 {
			t.Errorf("j=%d: remote-covered matrix materialized %d executables, want 0", j, m.Builds)
		}
		if m.Store.Hits == 0 || m.Store.Misses != 0 {
			t.Errorf("j=%d: store metrics %+v on a fully covered matrix", j, m.Store)
		}
		if rm := remote.Metrics(); rm.Hits == 0 || rm.Errors != 0 {
			t.Errorf("j=%d: remote transport metrics %+v", j, rm)
		}
	}
}

// TestRemoteTieredLocalCache: -store DIR composing with -remote URL. The
// tiered run fills the local Disk cache from remote hits (read-through),
// so a third run finds everything locally; and a fresh computation lands
// in both tiers (write-through).
func TestRemoteTieredLocalCache(t *testing.T) {
	matrix := comp.Matrix()

	shared, err := store.Open(t.TempDir(), EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.Handler(shared))
	defer srv.Close()

	// Seed the shared server from a plain remote-only run.
	seed := newSuite()
	seed.Cache = NewCache()
	r0, err := store.NewRemote(srv.URL, EngineVersion, remoteOpts())
	if err != nil {
		t.Fatal(err)
	}
	seed.Cache.SetStore(r0)
	seedRes, err := seed.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(seedRes)

	// Tiered run: fresh local dir in front of the shared server. Every hit
	// comes over the wire and is filled into the local tier.
	localDir := t.TempDir()
	openLocal := func() *store.Disk {
		d, err := store.Open(localDir, EngineVersion)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tiered := newSuite()
	tiered.Cache = NewCache()
	r1, err := store.NewRemote(srv.URL, EngineVersion, remoteOpts())
	if err != nil {
		t.Fatal(err)
	}
	tiered.Cache.SetStore(store.Tier(openLocal(), r1))
	tieredRes, err := tiered.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixFingerprint(tieredRes); got != want {
		t.Error("tiered matrix differs from the seeded run")
	}
	if m := tiered.Cache.Metrics(); m.Builds != 0 {
		t.Errorf("tiered run materialized %d executables, want 0", m.Builds)
	}
	if rm := r1.Metrics(); rm.Hits == 0 {
		t.Errorf("tiered run never reached the remote: %+v", rm)
	}

	// Third run: local tier only — the read-through fill must have made
	// the shared server unnecessary.
	local := newSuite()
	local.Cache = NewCache()
	local.Cache.SetStore(openLocal())
	localRes, err := local.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixFingerprint(localRes); got != want {
		t.Error("local-only matrix differs after read-through fill")
	}
	m := local.Cache.Metrics()
	if m.Builds != 0 || m.Store.Hits == 0 || m.Store.Misses != 0 {
		t.Errorf("local-only run after fill: %+v", m)
	}
}

// TestRemoteFaultsRecomputeAndSelfHeal drives the matrix through a flaky
// transport: scripted 503s, stalls, truncations, corruptions, and
// wrong-engine fences are injected into the warm run's lookups. Every
// fault must degrade to a recompute — output byte-identical to the clean
// run at j∈{1,8} under -race, run never failed — and the write-through
// must self-heal, so a final clean run is fully covered again.
func TestRemoteFaultsRecomputeAndSelfHeal(t *testing.T) {
	matrix := comp.Matrix()

	disk, err := store.Open(t.TempDir(), EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	flaky := storetest.NewFlaky(store.Handler(disk))
	srv := httptest.NewServer(flaky)
	defer srv.Close()

	newClient := func() *store.Remote {
		r, err := store.NewRemote(srv.URL, EngineVersion, remoteOpts())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	cold := newSuite()
	cold.Cache = NewCache()
	cold.Cache.SetStore(newClient())
	coldRes, err := cold.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(coldRes)

	script := []storetest.Fault{
		storetest.Err503, storetest.Err503, storetest.Stall,
		storetest.Truncate, storetest.Corrupt, storetest.WrongEngine,
		storetest.Corrupt, storetest.Err503, storetest.Truncate,
	}
	for _, j := range []int{1, 8} {
		flaky.Push(script...)
		warm := newSuite()
		warm.Cache = NewCache()
		remote := newClient()
		warm.Cache.SetStore(remote)
		if j > 1 {
			warm.Pool = exec.New(j)
		}
		warmRes, err := warm.RunMatrix(matrix)
		if err != nil {
			t.Fatalf("j=%d: a faulted run failed instead of recomputing: %v", j, err)
		}
		if got := matrixFingerprint(warmRes); got != want {
			t.Errorf("j=%d: faulted run differs from the clean run", j)
		}
		if flaky.Pending() > 0 {
			t.Fatalf("j=%d: matrix finished with %d scripted faults unserved — script too long for the workload", j, flaky.Pending())
		}
		if rm := remote.Metrics(); rm.Errors == 0 {
			t.Errorf("j=%d: no degraded lookups recorded against a faulty transport: %+v", j, rm)
		}
	}

	// Self-heal: the recomputed entries were written through, so a clean
	// client is fully covered — zero builds, zero store misses.
	clean := newSuite()
	clean.Cache = NewCache()
	clean.Cache.SetStore(newClient())
	cleanRes, err := clean.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixFingerprint(cleanRes); got != want {
		t.Error("post-heal matrix differs")
	}
	if m := clean.Cache.Metrics(); m.Builds != 0 || m.Store.Misses != 0 {
		t.Errorf("faults did not self-heal: %+v", m)
	}
}

// TestRemoteOldEnvelopeServerRecomputes: a mixed fleet, this build's
// client against a server of the previous wire format, which answers
// every hit with a JSON envelope (engine, key, hex SHA-256, payload)
// under an honest engine echo. Each such answer is a degraded miss, never
// a hit, so the run recomputes and still matches the clean run.
func TestRemoteOldEnvelopeServerRecomputes(t *testing.T) {
	matrix := comp.Matrix()[:8]
	disk, err := store.Open(t.TempDir(), EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	current := store.Handler(disk)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		raw, _ := base64.RawURLEncoding.DecodeString(strings.TrimPrefix(req.URL.Path, "/v1/objects/"))
		data, ok := disk.Get(string(raw))
		if req.Method != http.MethodGet || !ok {
			current.ServeHTTP(w, req)
			return
		}
		w.Header().Set("X-Flit-Engine", EngineVersion)
		json.NewEncoder(w).Encode(map[string]any{"engine": EngineVersion, "key": string(raw),
			"sum": fmt.Sprintf("%x", sha256.Sum256(data)), "data": json.RawMessage(data)})
	}))
	defer old.Close()

	run := func() (string, CacheMetrics, store.RemoteMetrics) {
		s := newSuite()
		s.Cache = NewCache()
		remote, err := store.NewRemote(old.URL, EngineVersion, remoteOpts())
		if err != nil {
			t.Fatal(err)
		}
		s.Cache.SetStore(remote)
		res, err := s.RunMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		return matrixFingerprint(res), s.Cache.Metrics(), remote.Metrics()
	}
	want, cold, _ := run()
	if cold.Builds == 0 || cold.Store.Puts == 0 {
		t.Fatalf("cold run metrics %+v — nothing computed or persisted", cold)
	}
	got, warm, rm := run()
	if got != want {
		t.Error("the run against the old-envelope server differs from the clean run")
	}
	if warm.Builds != cold.Builds || warm.Store.Hits != 0 {
		t.Errorf("old envelopes served hits: %d builds (cold %d), store %+v", warm.Builds, cold.Builds, warm.Store)
	}
	if rm.Hits != 0 || rm.Errors != rm.Misses || rm.Errors == 0 || rm.Retries != 0 {
		t.Errorf("remote metrics %+v; want every lookup a degraded miss, none retried", rm)
	}
}
