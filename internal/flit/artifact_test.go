package flit

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/link"
)

// exportImport pushes a cache's contents through JSON bytes into a fresh
// cache, the full remote round trip.
func exportImport(t *testing.T, c *Cache) *Cache {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Export(exec.Shard{}, []string{"test"}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	art, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewCache()
	if err := fresh.Merge(art); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestArtifactRoundTripValues: scalars, vectors (including empty), NaN and
// ±Inf all survive the JSON round trip bit-exactly — decimal JSON floats
// would reject NaN outright and the Laghos NaN study depends on them.
func TestArtifactRoundTripValues(t *testing.T) {
	c := NewCache()
	vals := map[string]Result{
		"scalar":   ScalarResult(0.1 + 0.2),
		"zero":     ScalarResult(0),
		"nan":      ScalarResult(math.NaN()),
		"inf":      ScalarResult(math.Inf(1)),
		"vec":      VecResult([]float64{1.5, math.NaN(), math.Inf(-1), -0.0}),
		"emptyvec": VecResult([]float64{}),
	}
	for k, v := range vals {
		v := v
		c.runs.Seed(k, runVal{res: v}, nil)
	}
	fresh := exportImport(t, c)
	for k, want := range vals {
		got, err := fresh.runs.Do(k, func() (runVal, error) {
			t.Fatalf("key %q not imported", k)
			return runVal{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.res.IsVec() != want.IsVec() {
			t.Errorf("%s: IsVec %v != %v", k, got.res.IsVec(), want.IsVec())
			continue
		}
		if !want.IsVec() {
			if math.Float64bits(got.res.Scalar) != math.Float64bits(want.Scalar) {
				t.Errorf("%s: scalar bits differ: %x != %x", k,
					math.Float64bits(got.res.Scalar), math.Float64bits(want.Scalar))
			}
			continue
		}
		if len(got.res.Vec) != len(want.Vec) {
			t.Errorf("%s: len %d != %d", k, len(got.res.Vec), len(want.Vec))
			continue
		}
		for i := range want.Vec {
			if math.Float64bits(got.res.Vec[i]) != math.Float64bits(want.Vec[i]) {
				t.Errorf("%s[%d]: bits differ", k, i)
			}
		}
	}
}

// TestArtifactRoundTripErrors: memoized run errors keep their text and —
// for the one identity the drivers branch on — their errors.Is behavior
// after replay. A bisect replay that lost the segfault identity would
// misclassify every crashed symbol search.
func TestArtifactRoundTripErrors(t *testing.T) {
	c := NewCache()
	c.runs.Seed("segv", runVal{err: link.ErrSegfault}, nil)
	wrapped := errors.Join(errors.New("flit: test X:"), link.ErrSegfault)
	c.runs.Seed("wrapped-segv", runVal{err: wrapped}, nil)
	c.runs.Seed("other", runVal{err: errors.New("input exhausted")}, nil)
	c.runs.Seed("ok", runVal{res: ScalarResult(1)}, nil)

	fresh := exportImport(t, c)
	get := func(k string) error {
		v, _ := fresh.runs.Do(k, func() (runVal, error) {
			t.Fatalf("key %q not imported", k)
			return runVal{}, nil
		})
		return v.err
	}
	if err := get("segv"); !errors.Is(err, link.ErrSegfault) || err.Error() != link.ErrSegfault.Error() {
		t.Errorf("segv replayed as %v", err)
	}
	if err := get("wrapped-segv"); !errors.Is(err, link.ErrSegfault) || err.Error() != wrapped.Error() {
		t.Errorf("wrapped segv replayed as %v", err)
	}
	if err := get("other"); errors.Is(err, link.ErrSegfault) || err == nil || err.Error() != "input exhausted" {
		t.Errorf("plain error replayed as %v", err)
	}
	if err := get("ok"); err != nil {
		t.Errorf("clean result replayed with error %v", err)
	}
}

// TestImportNeverOverwrites: overlapping keys across shards (every shard
// computes the shared baselines redundantly) keep the first-imported
// value — safe because a deterministic engine makes all copies identical.
func TestImportNeverOverwrites(t *testing.T) {
	src := NewCache()
	src.runs.Seed("k", runVal{res: ScalarResult(42)}, nil)
	art := src.Export(exec.Shard{}, nil)

	dst := NewCache()
	dst.runs.Seed("k", runVal{res: ScalarResult(42)}, nil)
	if err := dst.Merge(art); err != nil {
		t.Fatal(err)
	}
	v, _ := dst.runs.Do("k", func() (runVal, error) { return runVal{}, nil })
	if v.res.Scalar != 42 {
		t.Errorf("existing entry overwritten: %v", v.res.Scalar)
	}
	if dst.runs.Len() != 1 {
		t.Errorf("Len = %d after overlapping import", dst.runs.Len())
	}
}

// TestArtifactExportDeterministic: the same cache contents always
// serialize to the same bytes (sorted records), so shard artifacts can be
// compared and content-addressed.
func TestArtifactExportDeterministic(t *testing.T) {
	build := func() *bytes.Buffer {
		c := NewCache()
		for _, k := range []string{"z", "a", "m"} {
			c.runs.Seed(k, runVal{res: ScalarResult(float64(len(k)))}, nil)
		}
		var buf bytes.Buffer
		if err := c.Export(exec.Shard{Index: 0, Count: 2}, []string{"run"}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(build().Bytes(), build().Bytes()) {
		t.Error("identical cache contents serialized to different bytes")
	}
}

// TestWarmStartedExportKeepsUnrequestedBaseline: a warm-started shard
// re-exports every baseline record it was seeded with, requested or not,
// next to what it computed. A baseline served as a read-only tier behind
// the cache instead of seeded into it would lose the unrequested "b".
func TestWarmStartedExportKeepsUnrequestedBaseline(t *testing.T) {
	c := NewCache()
	if err := c.WarmStart(false, art([]string{"run"}, scalarRec("a", 1), scalarRec("b", 2))); err != nil {
		t.Fatal(err)
	}
	c.runs.Do("a", func() (runVal, error) {
		t.Fatal("seeded key a recomputed")
		return runVal{}, nil
	})
	c.runs.Do("c", func() (runVal, error) { return runVal{res: ScalarResult(3)}, nil })

	got := c.Export(exec.Shard{}, []string{"run"}).Runs
	want := []RunRecord{scalarRec("a", 1), scalarRec("b", 2), scalarRec("c", 3)}
	if len(got) != len(want) {
		t.Fatalf("exported %d runs %+v, want a, b and c", len(got), got)
	}
	for i := range want {
		if !equalRecord(got[i], want[i]) || got[i].Key != want[i].Key {
			t.Errorf("run %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
