package flit

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
	"repro/internal/store"
)

// TestEngine3StoreRefusedWithRecovery: a store written by the previous
// engine (whose full-build keys named every file) is refused at Open, and
// the refusal names both engines and says that deleting the directory is
// safe, as the layout-v1 refusal does.
func TestEngine3StoreRefusedWithRecovery(t *testing.T) {
	dir := t.TempDir()
	old, err := store.Open(dir, "flit-engine/3")
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Put(storeRunPrefix+"k", []byte("{}")); err != nil {
		t.Fatal(err)
	}

	_, err = store.Open(dir, EngineVersion)
	if err == nil {
		t.Fatal("engine/3 store opened under " + EngineVersion)
	}
	for _, want := range []string{`"flit-engine/3"`, `"` + EngineVersion + `"`,
		"only caches recomputable results", "delete the directory"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
}

// TestStoreWarmCacheBuildsNothing: a fresh Cache sharing only the
// persistent store with an earlier one answers every covered evaluation
// without materializing a single plan — the no-manifest warm start the
// store tier exists for — and the results are bit-identical.
func TestStoreWarmCacheBuildsNothing(t *testing.T) {
	s := newSuite()
	st := store.NewMem(0)
	plan := link.FullBuildPlan(s.Prog, s.Baseline)

	cold := NewCache()
	cold.SetStore(st)
	want, err := cold.RunAllPlanned(s.Tests[0], link.NewBuilder(plan))
	if err != nil {
		t.Fatal(err)
	}
	if m := cold.StoreMetrics(); !m.Enabled || m.Puts != 1 || m.Hits != 0 {
		t.Fatalf("cold store metrics = %+v, want 1 put", m)
	}

	// "Fresh process": a new Cache with no memory of the first.
	warm := NewCache()
	warm.SetStore(st)
	wb := link.NewBuilder(plan)
	got, err := warm.RunAllPlanned(s.Tests[0], wb)
	if err != nil {
		t.Fatal(err)
	}
	if wb.Built() {
		t.Fatal("store-covered run materialized the plan")
	}
	if L2Diff(want, got) != 0 {
		t.Fatal("store hit returned different bits")
	}
	m := warm.Metrics()
	if m.Builds != 0 {
		t.Fatalf("store-warm cache materialized %d plans, want 0", m.Builds)
	}
	if m.SkippedBuilds == 0 {
		t.Fatal("no skipped builds recorded on a store-warm cache")
	}
	if m.Store.Hits != 1 || m.Store.Misses != 0 {
		t.Fatalf("warm store metrics = %+v, want 1 hit", m.Store)
	}
}

// TestStorePersistsRunErrors: a memoized build/run error round-trips
// through the store like artifact export records it — the fresh cache
// surfaces the same failure without re-linking.
func TestStorePersistsRunErrors(t *testing.T) {
	s := newSuite()
	st := store.NewMem(0)
	bad := link.Plan{Prog: s.Prog, Baseline: s.Baseline,
		Files: []link.Override{{Name: "nosuch.cpp", Comp: comp.PerfReference()}}}

	first := NewCache()
	first.SetStore(st)
	_, wantErr := first.RunAllPlanned(s.Tests[0], link.NewBuilder(bad))
	if wantErr == nil {
		t.Fatal("unbuildable plan ran")
	}

	second := NewCache()
	second.SetStore(st)
	b := link.NewBuilder(bad)
	_, gotErr := second.RunAllPlanned(s.Tests[0], b)
	if gotErr == nil {
		t.Fatal("persisted build error lost")
	}
	if b.Built() {
		t.Fatal("persisted build error still re-linked the plan")
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("replayed error %q != original %q", gotErr, wantErr)
	}
}

// TestStoreCorruptEntriesAreMisses: payloads that do not decode, validate,
// or match their key must be recomputed, never replayed.
func TestStoreCorruptEntriesAreMisses(t *testing.T) {
	s := newSuite()
	plan := link.FullBuildPlan(s.Prog, s.Baseline)
	runKey := PlanRunKey(link.NewBuilder(plan), s.Tests[0])

	seed := func(payload []byte) *Cache {
		st := store.NewMem(0)
		if err := st.Put(storeRunPrefix+runKey, payload); err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		c.SetStore(st)
		return c
	}
	wrongKey, err := json.Marshal(RunRecord{Key: "some-other-key", Scalar: 42})
	if err != nil {
		t.Fatal(err)
	}
	inconsistent, err := json.Marshal(RunRecord{Key: runKey, IsVec: false, Vec: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"garbage":          []byte("not json"),
		"truncated":        []byte(`{"key":"` + runKey[:len(runKey)/2]),
		"wrong key":        wrongKey,
		"inconsistent vec": inconsistent,
	} {
		t.Run(name, func(t *testing.T) {
			c := seed(payload)
			b := link.NewBuilder(plan)
			got, err := c.RunAllPlanned(s.Tests[0], b)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Built() {
				t.Fatal("corrupt store entry was replayed instead of recomputed")
			}
			ref, err := NewCache().RunAllPlanned(s.Tests[0], link.NewBuilder(plan))
			if err != nil {
				t.Fatal(err)
			}
			if L2Diff(got, ref) != 0 {
				t.Fatal("recomputed result differs from a storeless run")
			}
			m := c.StoreMetrics()
			if m.Hits != 0 || m.Errors == 0 {
				t.Fatalf("corrupt entry metrics = %+v, want 0 hits and >0 errors", m)
			}
		})
	}
}

// TestStoreKeyNamespaces: stores written before runtimes were derived
// from the plan also hold cost records, under "cost\x00" and keyed by plan
// key and root symbol. None of them is ever read: a run whose key spells
// the same string misses the store, runs, and writes its own record under
// the run prefix.
func TestStoreKeyNamespaces(t *testing.T) {
	s := newSuite()
	plan := link.FullBuildPlan(s.Prog, s.Baseline)
	key := PlanRunKey(link.NewBuilder(plan), s.Tests[0])
	st := store.NewMem(0)
	if err := st.Put("cost\x00"+key, []byte(`{"key":"`+key+`","cost":4611686018427387904}`)); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	c.SetStore(st)
	b := link.NewBuilder(plan)
	got, err := c.RunAllPlanned(s.Tests[0], b)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Built() {
		t.Fatal("a run was answered from a cost record")
	}
	ref, err := NewCache().RunAllPlanned(s.Tests[0], link.NewBuilder(plan))
	if err != nil {
		t.Fatal(err)
	}
	if L2Diff(got, ref) != 0 {
		t.Fatal("a store holding a cost record changed the result")
	}
	if m := c.StoreMetrics(); m.Hits != 0 || m.Misses != 1 || m.Errors != 0 || m.Puts != 1 {
		t.Fatalf("store metrics = %+v, want one clean miss and one put", m)
	}
	if _, ok := st.Get(storeRunPrefix + key); !ok {
		t.Fatal("the run was not written under the run prefix")
	}
}

// TestStoreWriteFailureDoesNotFailRun: a store whose Puts fail still
// serves correct results — persistence is best-effort, observability is
// not: the failure count must surface in the metrics.
func TestStoreWriteFailureDoesNotFailRun(t *testing.T) {
	s := newSuite()
	c := NewCache()
	c.SetStore(failingStore{})
	got, err := c.RunAllPlanned(s.Tests[0], link.NewBuilder(link.FullBuildPlan(s.Prog, s.Baseline)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCache().RunAllPlanned(s.Tests[0], link.NewBuilder(link.FullBuildPlan(s.Prog, s.Baseline)))
	if err != nil {
		t.Fatal(err)
	}
	if L2Diff(got, ref) != 0 {
		t.Fatal("failing store changed the result")
	}
	if m := c.StoreMetrics(); m.Errors == 0 || m.Puts != 0 {
		t.Fatalf("failing store metrics = %+v, want errors > 0 and 0 puts", m)
	}
}

// TestStoreCrossProcessMatrixBuildsNothing is the tentpole acceptance pin:
// a full matrix run against a fresh on-disk store, then "new processes"
// (fresh caches with fresh Disk handles on the same directory, at -j 1 and
// fanned out) that reproduce it byte-identically with zero materialized
// builds and no warm-start manifest. A store claimed by a different engine
// version must be rejected at Open, and a damaged entry must be
// recomputed — and thereby healed — never replayed.
func TestStoreCrossProcessMatrixBuildsNothing(t *testing.T) {
	dir := t.TempDir()
	matrix := comp.Matrix()

	openDisk := func() *store.Disk {
		d, err := store.Open(dir, EngineVersion)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	cold := newSuite()
	cold.Cache = NewCache()
	cold.Cache.SetStore(openDisk())
	coldRes, err := cold.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(coldRes)
	if m := cold.Cache.Metrics(); m.Builds == 0 || m.Store.Puts == 0 {
		t.Fatalf("cold run metrics %+v — nothing computed or persisted", m)
	}

	warmRun := func(j int) (CacheMetrics, *store.Disk) {
		warm := newSuite()
		warm.Cache = NewCache()
		d := openDisk()
		warm.Cache.SetStore(d)
		if j > 1 {
			warm.Pool = exec.New(j)
		}
		warmRes, err := warm.RunMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixFingerprint(warmRes); got != want {
			t.Errorf("j=%d: store-warmed matrix differs from cold run", j)
		}
		return warm.Cache.Metrics(), d
	}
	for _, j := range []int{1, 8} {
		m, _ := warmRun(j)
		if m.Builds != 0 {
			t.Errorf("j=%d: store-covered matrix materialized %d executables, want 0", j, m.Builds)
		}
		if m.SkippedBuilds == 0 {
			t.Errorf("j=%d: no skipped builds recorded on a store-warm run", j)
		}
		if m.Store.Hits == 0 || m.Store.Misses != 0 {
			t.Errorf("j=%d: store metrics %+v on a fully covered matrix", j, m.Store)
		}
	}

	// Foreign engine versions are fenced out at Open.
	if _, err := store.Open(dir, "flit-engine/0"); err == nil {
		t.Fatal("store written by this engine opened under a foreign version")
	}

	// Flip one payload byte of one record: the damaged key recomputes
	// (exactly one build), the output is unchanged, and the write-through
	// appends a newer record that wins, so the next process is back to zero
	// builds.
	segs, err := filepath.Glob(filepath.Join(dir, "segments", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments on disk after a cold run (%v)", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// The first record follows the segment header (magic, engine length,
	// engine); its payload is its last bytes.
	hdr := 8 + 4 + len(EngineVersion)
	keyLen := binary.LittleEndian.Uint32(raw[hdr:])
	dataLen := binary.LittleEndian.Uint32(raw[hdr+4:])
	raw[hdr+40+int(keyLen)+int(dataLen)-2] ^= 0x01
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m, d := warmRun(8)
	if d.CorruptReads() == 0 {
		t.Error("damaged entry not counted as a corrupt read")
	}
	if m.Builds != 1 {
		t.Errorf("damaged entry: %d builds, want exactly one recomputation", m.Builds)
	}
	if m, _ := warmRun(8); m.Builds != 0 {
		t.Errorf("damaged entry did not heal: %d builds on the follow-up run", m.Builds)
	}
}

type failingStore struct{}

func (failingStore) Get(string) ([]byte, bool) { return nil, false }
func (failingStore) Put(string, []byte) error  { return errFailingStore }
func (failingStore) String() string            { return "failingStore" }

var errFailingStore = jsonError("store unavailable")

type jsonError string

func (e jsonError) Error() string { return string(e) }
