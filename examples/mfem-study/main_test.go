package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
)

// TestMFEMStudySmoke replays the §3.1–§3.3 study end to end: Table 1,
// Figures 5 and 6, and the Finding 2 bisect must all render.
func TestMFEMStudySmoke(t *testing.T) {
	var b strings.Builder
	if err := run(&b, experiments.NewEngine(0)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table 1 — compiler summary:",
		"Figure 5 —",
		"Figure 6 —",
		"bisecting Example13",
		// Finding 2: the single-function blame.
		"AddMult_a_AAt",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestMFEMStudyShardMergeEquivalence is the study-scale acceptance proof:
// the full §3.1–§3.3 regeneration — 244-compilation matrix, Table 1,
// Figures 5/6, and the Finding 2 bisect — run as two shards and merged is
// byte-identical to the unsharded run, with every matrix evaluation
// answered from the shard artifacts.
func TestMFEMStudyShardMergeEquivalence(t *testing.T) {
	var want strings.Builder
	if err := run(&want, experiments.NewEngine(1)); err != nil {
		t.Fatal(err)
	}

	const n = 2
	arts := make([]*flit.Artifact, n)
	for i := 0; i < n; i++ {
		eng := experiments.NewEngine(2)
		eng.SetShard(exec.Shard{Index: i, Count: n})
		if err := run(io.Discard, eng); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		// Round-trip through JSON bytes — the merge consumes exactly what a
		// remote shard would ship.
		var buf bytes.Buffer
		if err := eng.ExportArtifact([]string{"mfem-study"}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		a, err := flit.ReadArtifact(&buf)
		if err != nil {
			t.Fatal(err)
		}
		arts[i] = a
	}

	merged := experiments.NewEngine(1)
	if err := merged.ImportArtifacts(arts...); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := run(&got, merged); err != nil {
		t.Fatalf("merged replay: %v", err)
	}
	if got.String() != want.String() {
		t.Error("merged study output differs from the unsharded run")
	}
	// The matrix evaluations must all come from the artifacts; only the
	// replayed Finding 2 bisect (adaptive, not matrix-shardable) may
	// compute — and both shards ran it too, so even that should hit.
	if m := merged.CacheMetrics(); m.Runs.Misses != 0 {
		t.Errorf("merged replay recomputed %d runs; shards did not cover the study", m.Runs.Misses)
	}
}
