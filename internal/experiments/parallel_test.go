package experiments

import (
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/flit"
)

// TestSweepParallelEquivalence is the end-to-end determinism proof: the
// full experiments sweep — matrix, Table 2 bisect characterization, Laghos
// case study, sampled injection campaign — produces byte-identical output
// at -j 1, warm-started from the -j 1 run's artifact (with zero builds and
// zero run-cache misses), and as two -j 8 shards merged by a -j 8
// collector.
func TestSweepParallelEquivalence(t *testing.T) {
	seqEng := NewEngine(1)
	seq, err := seqEng.SweepDigest()
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	if !strings.Contains(seq, "== Table 5") {
		t.Fatal("sweep digest missing sections")
	}
	// Warm start: every covered evaluation replays from the seeded entry
	// with no link step, no machine and no test execution.
	warm := NewEngine(1)
	if err := warm.WarmStart(seqEng.ExportArtifact(nil)); err != nil {
		t.Fatal(err)
	}
	got, err := warm.SweepDigest()
	if err != nil {
		t.Fatalf("warm-started sweep: %v", err)
	}
	sameDigest(t, "warm start", seq, got)
	if m := warm.CacheMetrics(); m.Builds != 0 || m.Runs.Misses != 0 {
		t.Errorf("warm-started sweep built %d executables and missed the run cache %d times, want 0/0",
			m.Builds, m.Runs.Misses)
	}

	// Shard + merge at -j 8: each shard engine computes its half of every
	// fan-out in parallel; the collector replays the sweep from the union
	// of their artifacts at -j 8 over the merged cache.
	arts := make([]*flit.Artifact, 2)
	for i := range arts {
		eng := NewEngine(8)
		eng.SetShard(exec.Shard{Index: i, Count: len(arts)})
		if _, err := eng.SweepDigest(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		arts[i] = eng.ExportArtifact(nil)
	}
	merged := NewEngine(8)
	if err := merged.ImportArtifacts(arts...); err != nil {
		t.Fatal(err)
	}
	if got, err = merged.SweepDigest(); err != nil {
		t.Fatalf("merged sweep: %v", err)
	}
	sameDigest(t, "-j 8 shard+merge", seq, got)
}

// sameDigest fails the test at the first line where got departs from the
// sequential sweep digest want.
func sameDigest(t *testing.T, config, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	wantLines, gotLines := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := min(len(wantLines), len(gotLines)) - 1
	for i := 0; i <= line; i++ {
		if wantLines[i] != gotLines[i] {
			line = i
			break
		}
	}
	t.Errorf("%s: sweep digest differs at line %d:\n  -j 1: %q\n  %s: %q",
		config, line, wantLines[line], config, gotLines[line])
}

// TestBisectFoundSetEquivalence asserts a parallel bisect search returns
// the identical found set — files, symbols, values, statuses, and the
// paper's execution count — as a sequential one.
func TestBisectFoundSetEquivalence(t *testing.T) {
	variable := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O3", Switches: "-mavx2 -mfma"}

	seqEng := NewEngine(1)
	parEng := NewEngine(8)
	for _, test := range []string{"Example08", "Example13"} {
		seqWf := seqEng.Workflow()
		seqReport, err := seqWf.Bisect(seqWf.TestByName(test), variable, 0)
		if err != nil {
			t.Fatalf("%s sequential: %v", test, err)
		}
		parWf := parEng.Workflow()
		parReport, err := parWf.Bisect(parWf.TestByName(test), variable, 0)
		if err != nil {
			t.Fatalf("%s parallel: %v", test, err)
		}
		if seqReport.Execs != parReport.Execs {
			t.Errorf("%s: execs %d (seq) != %d (par)", test, seqReport.Execs, parReport.Execs)
		}
		if len(seqReport.Files) != len(parReport.Files) {
			t.Fatalf("%s: %d files (seq) != %d (par)", test, len(seqReport.Files), len(parReport.Files))
		}
		for i := range seqReport.Files {
			sf, pf := seqReport.Files[i], parReport.Files[i]
			if sf.File != pf.File || sf.Value != pf.Value || sf.Status != pf.Status {
				t.Errorf("%s file %d: (%s %g %v) != (%s %g %v)",
					test, i, sf.File, sf.Value, sf.Status, pf.File, pf.Value, pf.Status)
			}
			if len(sf.Symbols) != len(pf.Symbols) {
				t.Fatalf("%s %s: %d symbols != %d", test, sf.File, len(sf.Symbols), len(pf.Symbols))
			}
			for j := range sf.Symbols {
				if sf.Symbols[j] != pf.Symbols[j] {
					t.Errorf("%s %s symbol %d: %v != %v",
						test, sf.File, j, sf.Symbols[j], pf.Symbols[j])
				}
			}
		}
	}
}

// TestCacheEngages proves the build/run cache actually memoizes across the
// sweep's consumers: a fresh engine that runs Table 4 (twelve comparison
// regimes over the same divergence) must see far more cache hits than
// misses.
func TestCacheEngages(t *testing.T) {
	e := NewEngine(2)
	if _, err := e.Table4(); err != nil {
		t.Fatal(err)
	}
	m := e.CacheMetrics().Runs
	if m.Misses == 0 {
		t.Fatal("cache recorded no misses — nothing went through it")
	}
	if m.Hits < m.Misses {
		t.Errorf("cache hits %d < misses %d; memoization is not engaging", m.Hits, m.Misses)
	}
}
