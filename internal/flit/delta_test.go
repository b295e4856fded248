package flit

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
)

// art builds a valid single-shard artifact from run records.
func art(command []string, runs ...RunRecord) *Artifact {
	return &Artifact{
		Version: ArtifactVersion,
		Engine:  EngineVersion,
		Command: command,
		Runs:    runs,
	}
}

func scalarRec(key string, v float64) RunRecord {
	return RunRecord{Key: key, Scalar: math.Float64bits(v)}
}

// TestDiffArtifactsClassification: the offline diff lands every key in
// exactly one bucket, bit-exactly — including a NaN result, which must
// compare equal to itself (bits, not float comparison).
func TestDiffArtifactsClassification(t *testing.T) {
	nan := math.NaN()
	base := art([]string{"run"},
		scalarRec("same", 1.5),
		scalarRec("gone", 2.0),
		scalarRec("moved", 3.0),
		scalarRec("nan", nan),
		RunRecord{Key: "err", Err: "input exhausted"},
	)
	cur := art([]string{"run"},
		scalarRec("same", 1.5),
		scalarRec("moved", 3.0000000001),
		scalarRec("nan", nan),
		scalarRec("fresh", 4.0),
		RunRecord{Key: "err", Err: "input exhausted", Segfault: true},
	)
	rep, err := DiffArtifacts([]*Artifact{base}, []*Artifact{cur})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.New) != 1 || rep.New[0].Key != "fresh" {
		t.Errorf("New = %+v, want [fresh]", rep.New)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0].Key != "gone" {
		t.Errorf("Dropped = %+v, want [gone]", rep.Dropped)
	}
	// "moved" changed value bits; "err" changed its segfault identity.
	if len(rep.Changed) != 2 || rep.Changed[0].Key != "err" || rep.Changed[1].Key != "moved" {
		t.Errorf("Changed = %+v, want [err moved]", rep.Changed)
	}
	if rep.Unchanged != 2 { // "same" and "nan"
		t.Errorf("Unchanged = %d, want 2 (same + nan)", rep.Unchanged)
	}
	if rep.Empty() {
		t.Error("non-empty delta reported Empty")
	}
	if got := rep.Changed[1]; got.Old.Scalar != math.Float64bits(3.0) ||
		got.New.Scalar != math.Float64bits(3.0000000001) {
		t.Errorf("changed entry lost the exact old/new bits: %+v", got)
	}
}

// TestDiffArtifactsIdenticalSetsEmpty is the acceptance property: two
// artifact sets recording byte-identical results diff to an empty report.
func TestDiffArtifactsIdenticalSetsEmpty(t *testing.T) {
	build := func() *Artifact {
		return art([]string{"run"}, scalarRec("a", 1), scalarRec("b", math.Inf(-1)))
	}
	rep, err := DiffArtifacts([]*Artifact{build()}, []*Artifact{build()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() || rep.Unchanged != 2 {
		t.Errorf("identical sets: %s", rep.Summary())
	}
}

// TestDiffArtifactsValidation: each side is validated like a merge input —
// incomplete partitions and conflicting duplicates are rejected, while the
// legitimate overlap (shards recomputing shared baseline cells with
// identical bits) is not.
func TestDiffArtifactsValidation(t *testing.T) {
	half := art([]string{"run"}, scalarRec("a", 1))
	half.Shard = exec.Shard{Index: 0, Count: 2}
	if _, err := DiffArtifacts([]*Artifact{half}, []*Artifact{art(nil)}); err == nil {
		t.Error("incomplete baseline partition accepted")
	}
	if _, err := DiffArtifacts([]*Artifact{art(nil)}, []*Artifact{half}); err == nil {
		t.Error("incomplete current partition accepted")
	}

	s0 := art([]string{"run"}, scalarRec("shared", 1), scalarRec("own0", 2))
	s0.Shard = exec.Shard{Index: 0, Count: 2}
	s1 := art([]string{"run"}, scalarRec("shared", 1), scalarRec("own1", 3))
	s1.Shard = exec.Shard{Index: 1, Count: 2}
	if _, err := DiffArtifacts([]*Artifact{s0, s1}, []*Artifact{art([]string{"run"})}); err != nil {
		t.Errorf("identical shared-baseline overlap rejected: %v", err)
	}
	bad := art([]string{"run"}, scalarRec("shared", 99), scalarRec("own1", 3))
	bad.Shard = exec.Shard{Index: 1, Count: 2}
	if _, err := DiffArtifacts([]*Artifact{s0, bad}, []*Artifact{art([]string{"run"})}); err == nil ||
		!strings.Contains(err.Error(), "disagrees") {
		t.Errorf("conflicting shard overlap accepted: %v", err)
	}

	// Commands may differ across the two sets (campaign drift) and both are
	// recorded.
	rep, err := DiffArtifacts([]*Artifact{art([]string{"run", "-a"})}, []*Artifact{art([]string{"run", "-b"})})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BaselineCommand) != 2 || rep.BaselineCommand[1] != "-a" ||
		len(rep.Command) != 2 || rep.Command[1] != "-b" {
		t.Errorf("commands not recorded: base=%v cur=%v", rep.BaselineCommand, rep.Command)
	}
}

// TestArtifactCheckRejectsDuplicateKeys: a key recorded twice in one
// artifact marks a malformed file, even when the copies agree — seeding
// must refuse rather than let one copy silently answer for the other.
func TestArtifactCheckRejectsDuplicateKeys(t *testing.T) {
	dupRun := art(nil, scalarRec("k", 1), scalarRec("k", 1))
	if err := dupRun.Check(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("duplicate run key passed Check: %v", err)
	}
	if err := NewCache().WarmStart(false, dupRun); err == nil {
		t.Error("duplicate run key seeded")
	}
}

// TestDeltaTrackerSeedAndTrust: in trust mode WarmStart seeds the cache
// (baseline-covered evaluations become hits) and Delta classifies keys by
// provenance: requested baseline keys are hits, unrequested ones dropped,
// uncovered computations new.
func TestDeltaTrackerSeedAndTrust(t *testing.T) {
	cache := NewCache()
	if err := cache.WarmStart(false, art([]string{"run"}, scalarRec("hit", 1), scalarRec("stale", 2))); err != nil {
		t.Fatal(err)
	}
	// The "run": requests "hit" (a baseline answer) and computes "new".
	v, _ := cache.runs.Do("hit", func() (runVal, error) {
		t.Fatal("seeded key recomputed in trust mode")
		return runVal{}, nil
	})
	if v.res.Scalar != 1 {
		t.Fatalf("seeded value lost: %v", v.res.Scalar)
	}
	cache.runs.Do("new", func() (runVal, error) { return runVal{res: ScalarResult(9)}, nil })

	rep := cache.Delta([]string{"run", "-next"})
	if len(rep.New) != 1 || rep.New[0].Key != "new" {
		t.Errorf("New = %+v", rep.New)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0].Key != "stale" {
		t.Errorf("Dropped = %+v", rep.Dropped)
	}
	if len(rep.Changed) != 0 || rep.BaselineHits != 1 || rep.Fresh != 1 || rep.Unchanged != 1 {
		t.Errorf("counters wrong: %s", rep.Summary())
	}
	if rep.BaselineCommand[0] != "run" || rep.Command[1] != "-next" {
		t.Errorf("commands: %v -> %v", rep.BaselineCommand, rep.Command)
	}
}

// TestDeltaTrackerVerifyDetectsDivergence: a verify-mode WarmStart seeds
// nothing — covered keys are recomputed and compared bit-exactly, so a baseline
// whose recorded bits no longer match the engine's output is flagged as
// changed with both bit patterns.
func TestDeltaTrackerVerifyDetectsDivergence(t *testing.T) {
	cache := NewCache()
	err := cache.WarmStart(true, art([]string{"run"},
		scalarRec("stable", 1.5),
		scalarRec("drifted", 2.5),
		scalarRec("unrequested", 3.5)))
	if err != nil {
		t.Fatal(err)
	}
	if cache.runs.Len() != 0 {
		t.Fatalf("verify mode seeded %d entries", cache.runs.Len())
	}
	cache.runs.Do("stable", func() (runVal, error) { return runVal{res: ScalarResult(1.5)}, nil })
	cache.runs.Do("drifted", func() (runVal, error) { return runVal{res: ScalarResult(2.5000001)}, nil })

	rep := cache.Delta([]string{"run"})
	if len(rep.Changed) != 1 || rep.Changed[0].Key != "drifted" {
		t.Fatalf("Changed = %+v", rep.Changed)
	}
	if rep.Changed[0].Old.Scalar != math.Float64bits(2.5) ||
		rep.Changed[0].New.Scalar != math.Float64bits(2.5000001) {
		t.Errorf("divergence lost exact bits: %+v", rep.Changed[0])
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0].Key != "unrequested" {
		t.Errorf("Dropped = %+v", rep.Dropped)
	}
	if rep.BaselineHits != 0 || rep.Fresh != 2 || rep.Unchanged != 1 {
		t.Errorf("counters wrong: %s", rep.Summary())
	}
}

// TestDeltaTrackerComparesSupersededSeeds: when Merge seeds a key before
// the warm-start baseline does (seeding never overwrites — the merge path
// seeds its shard set first), the cache serves the *other* value; a
// baseline hit must still be compared bit-exactly, not trusted.
func TestDeltaTrackerComparesSupersededSeeds(t *testing.T) {
	cache := NewCache()
	// The "shard set" of the current generation arrives first with a
	// drifted value for k.
	if err := cache.Merge(art([]string{"run"}, scalarRec("k", 2.0))); err != nil {
		t.Fatal(err)
	}
	if err := cache.WarmStart(false, art([]string{"run"}, scalarRec("k", 1.0))); err != nil {
		t.Fatal(err)
	}
	// The replay requests k and is served the current generation's bits.
	v, _ := cache.runs.Do("k", func() (runVal, error) {
		t.Fatal("seeded key recomputed")
		return runVal{}, nil
	})
	if v.res.Scalar != 2.0 {
		t.Fatalf("first-in-wins violated: %v", v.res.Scalar)
	}
	rep := cache.Delta([]string{"run"})
	if len(rep.Changed) != 1 || rep.Changed[0].Key != "k" {
		t.Fatalf("superseded seed not compared: %s", rep.Summary())
	}
	if rep.Changed[0].Old.Scalar != math.Float64bits(1.0) ||
		rep.Changed[0].New.Scalar != math.Float64bits(2.0) {
		t.Errorf("changed bits wrong: %+v", rep.Changed[0])
	}
	if rep.BaselineHits != 1 || rep.Unchanged != 0 {
		t.Errorf("counters wrong: %s", rep.Summary())
	}
}

// TestDeltaTrackerRejectsConflictingBaselines: two baseline artifacts
// disagreeing on a key's bits cannot anchor a delta.
func TestDeltaTrackerRejectsConflictingBaselines(t *testing.T) {
	cache := NewCache()
	if err := cache.WarmStart(false, art(nil, scalarRec("k", 1))); err != nil {
		t.Fatal(err)
	}
	if err := cache.WarmStart(false, art(nil, scalarRec("k", 2))); err == nil {
		t.Error("conflicting baseline artifacts accepted")
	}
	if err := cache.WarmStart(false, art(nil, scalarRec("k", 1))); err != nil {
		t.Errorf("agreeing overlap rejected: %v", err)
	}
}

// TestDeltaReportRenderDeterministic: equal reports render to equal bytes,
// keys sorted, with the summary first.
func TestDeltaReportRenderDeterministic(t *testing.T) {
	build := func() *bytes.Buffer {
		rep, err := DiffArtifacts(
			[]*Artifact{art([]string{"run"}, scalarRec("z", 1), scalarRec("a", 2))},
			[]*Artifact{art([]string{"run"}, scalarRec("m", 3), scalarRec("a", 4))})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep.Render(&buf)
		return &buf
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("renders differ across identical diffs")
	}
	out := a.String()
	if !strings.HasPrefix(out, "delta: new=1 dropped=1 changed=1 unchanged=0") {
		t.Errorf("summary line wrong:\n%s", out)
	}
	for _, want := range []string{`new      "m"`, `dropped  "z"`, `changed  "a"`} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	rep, _ := DiffArtifacts([]*Artifact{art(nil)}, []*Artifact{art(nil)})
	if rep.WriteJSON(&buf) != nil || !strings.Contains(buf.String(), `"engine"`) {
		t.Errorf("WriteJSON: %s", buf.String())
	}
}
