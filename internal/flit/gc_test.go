package flit

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/exec"
)

// writeArt writes an artifact file and sets its modification time to the
// Unix second mod (0 leaves the time of the write).
func writeArt(t *testing.T, dir, name string, command []string, shard exec.Shard, mod int64) string {
	t.Helper()
	a := art(command, scalarRec("k", 1))
	a.Shard = shard
	path := filepath.Join(dir, name)
	if err := WriteArtifactFile(a, path); err != nil {
		t.Fatal(err)
	}
	if mod != 0 {
		if err := os.Chtimes(path, time.Unix(mod, 0), time.Unix(mod, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestPlanGCSupersededGenerations: within one campaign slot (engine,
// command, shard) only the newest keep files survive; other slots are
// untouched, and a complete shard set can never lose a member to another
// slot's pruning.
func TestPlanGCSupersededGenerations(t *testing.T) {
	dir := t.TempDir()
	old := writeArt(t, dir, "old.json", []string{"run"}, exec.Shard{}, 100)
	mid := writeArt(t, dir, "mid.json", []string{"run"}, exec.Shard{}, 200)
	newest := writeArt(t, dir, "new.json", []string{"run"}, exec.Shard{}, 300)
	other := writeArt(t, dir, "other.json", []string{"experiments", "table4"}, exec.Shard{}, 50)

	plan, err := PlanGC(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.Kept, []string{newest, other}) {
		t.Errorf("Kept = %v", plan.Kept)
	}
	if !slices.Equal(plan.Pruned, []string{mid, old}) {
		t.Errorf("Pruned = %v", plan.Pruned)
	}

	plan2, err := PlanGC(dir, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan2.Pruned, []string{old}) {
		t.Errorf("keep=2 Pruned = %v", plan2.Pruned)
	}

	if err := plan.Apply(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{old, mid} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s not pruned", p)
		}
	}
	for _, p := range []string{newest, other} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s should have survived: %v", p, err)
		}
	}
}

// TestPlanGCShardSlotsAreSeparateCampaigns: the two halves of a shard set
// live in distinct slots — pruning one slot's history cannot break the
// other's newest generation.
func TestPlanGCShardSlotsAreSeparateCampaigns(t *testing.T) {
	dir := t.TempDir()
	s0old := writeArt(t, dir, "s0-old.json", []string{"run"}, exec.Shard{Index: 0, Count: 2}, 100)
	s0new := writeArt(t, dir, "s0-new.json", []string{"run"}, exec.Shard{Index: 0, Count: 2}, 200)
	s1 := writeArt(t, dir, "s1.json", []string{"run"}, exec.Shard{Index: 1, Count: 2}, 100)

	plan, err := PlanGC(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.Pruned, []string{s0old}) {
		t.Errorf("Pruned = %v", plan.Pruned)
	}
	if !slices.Equal(plan.Kept, []string{s0new, s1}) {
		t.Errorf("Kept = %v", plan.Kept)
	}
}

// TestPlanGCProtectsManifestAndSkipsUnparseable: files a live campaign
// still warm-starts from are never pruned however superseded, and files
// that do not parse as artifacts are never deleted.
func TestPlanGCProtectsManifestAndSkipsUnparseable(t *testing.T) {
	dir := t.TempDir()
	old := writeArt(t, dir, "old.json", []string{"run"}, exec.Shard{}, 100)
	writeArt(t, dir, "new.json", []string{"run"}, exec.Shard{}, 200)
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	notJSON := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(notJSON, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}

	plan, err := PlanGC(dir, 1, map[string]bool{NormalizePath(old): true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Pruned) != 0 {
		t.Errorf("Pruned = %v, want none (old is protected)", plan.Pruned)
	}
	if !slices.Equal(plan.Protected, []string{old}) {
		t.Errorf("Protected = %v", plan.Protected)
	}
	if !slices.Equal(plan.Skipped, []string{junk}) {
		t.Errorf("Skipped = %v", plan.Skipped)
	}
	if err := plan.Apply(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{old, junk, notJSON} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s must not be touched: %v", p, err)
		}
	}
}

// TestPlanGCSkipsNonArtifactJSON: JSON that merely *decodes* into the
// Artifact shape — a DeltaReport shares the engine and command fields, a
// foreign engine's artifact decodes perfectly — must be skipped, never
// attributed to a campaign slot and pruned as a "superseded generation".
// (Regression: an unvalidated GC once grouped a delta report with the
// campaign whose command it recorded and deleted it.)
func TestPlanGCSkipsNonArtifactJSON(t *testing.T) {
	dir := t.TempDir()
	writeArt(t, dir, "old.json", []string{"run"}, exec.Shard{}, 100)
	writeArt(t, dir, "new.json", []string{"run"}, exec.Shard{}, 200)

	// A delta report for the same campaign: same engine, same command,
	// zero shard, no version field.
	rep := &DeltaReport{Engine: EngineVersion, Command: []string{"run"},
		New: []RunRecord{}, Dropped: []RunRecord{}, Changed: []DeltaChange{}}
	f, err := os.Create(filepath.Join(dir, "delta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	foreign := art([]string{"run"}, scalarRec("k", 1))
	foreign.Engine = "flit-engine/999"
	if err := WriteArtifactFile(foreign, filepath.Join(dir, "foreign.json")); err != nil {
		t.Fatal(err)
	}

	plan, err := PlanGC(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSkipped := []string{filepath.Join(dir, "delta.json"), filepath.Join(dir, "foreign.json")}
	if !slices.Equal(plan.Skipped, wantSkipped) {
		t.Errorf("Skipped = %v, want %v", plan.Skipped, wantSkipped)
	}
	if !slices.Equal(plan.Pruned, []string{filepath.Join(dir, "old.json")}) {
		t.Errorf("Pruned = %v, want only the superseded generation", plan.Pruned)
	}
}

// TestPlanGCOrderingFallsBackToModTime: generations are ordered by file
// modification time before path, whatever order they were written in.
func TestPlanGCOrderingFallsBackToModTime(t *testing.T) {
	dir := t.TempDir()
	newer := writeArt(t, dir, "a.json", []string{"run"}, exec.Shard{}, 0)
	older := writeArt(t, dir, "b.json", []string{"run"}, exec.Shard{}, 0)
	// Make the ordering independent of write timing granularity.
	base := time.Now()
	if err := os.Chtimes(older, base.Add(-time.Hour), base.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(newer, base, base); err != nil {
		t.Fatal(err)
	}
	plan, err := PlanGC(dir, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.Pruned, []string{older}) || !slices.Equal(plan.Kept, []string{newer}) {
		t.Errorf("mtime fallback: kept=%v pruned=%v", plan.Kept, plan.Pruned)
	}
}

// TestPlanGCPathTiebreaker: two generations with identical mtimes still
// prune deterministically — the path breaks the tie, so two planning
// passes over the same directory agree on which file survives.
func TestPlanGCPathTiebreaker(t *testing.T) {
	dir := t.TempDir()
	a := writeArt(t, dir, "a.json", []string{"run"}, exec.Shard{}, 100)
	b := writeArt(t, dir, "b.json", []string{"run"}, exec.Shard{}, 100)
	when := time.Now().Add(-time.Hour)
	for _, p := range []string{a, b} {
		if err := os.Chtimes(p, when, when); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		plan, err := PlanGC(dir, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Path descends after the time keys, so the lexically later file is
		// the "newest" of the tie and survives.
		if !slices.Equal(plan.Kept, []string{b}) || !slices.Equal(plan.Pruned, []string{a}) {
			t.Fatalf("pass %d: kept=%v pruned=%v, want kept=[%s] pruned=[%s]", i, plan.Kept, plan.Pruned, b, a)
		}
	}
}

// TestPlanGCRefusesKeepZero: keep < 1 would delete a campaign's entire
// history; the planner refuses.
func TestPlanGCRefusesKeepZero(t *testing.T) {
	for _, keep := range []int{0, -1} {
		if _, err := PlanGC(t.TempDir(), keep, nil); err == nil {
			t.Errorf("keep=%d accepted", keep)
		}
	}
	if _, err := PlanGC(filepath.Join(t.TempDir(), "missing"), 1, nil); err == nil {
		t.Error("missing directory accepted")
	}
}
