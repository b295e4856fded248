package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/flit"
)

// table4Baseline runs Table 4 as n shard engines and returns their
// exported artifacts — the baseline generation of an incremental campaign.
func table4Baseline(t *testing.T, n int) []*flit.Artifact {
	t.Helper()
	arts := make([]*flit.Artifact, n)
	for i := 0; i < n; i++ {
		eng := NewEngine(2)
		eng.SetShard(exec.Shard{Index: i, Count: n})
		if _, err := eng.Table4(); err != nil {
			t.Fatalf("baseline shard %d/%d: %v", i, n, err)
		}
		arts[i] = eng.ExportArtifact([]string{"experiments", "table4"})
	}
	return arts
}

// TestWarmStartDeltaEmptyProperty is the delta detector's core property:
// re-running the identical command warm-started from its own baseline
// yields an empty DeltaReport — nothing new, nothing dropped, nothing
// changed, zero fresh executions — at every parallelism j ∈ {1,2,8} and
// for baselines sharded N ∈ {1,2,4} ways (warm-start needs no complete
// set, but a complete one must cover everything). Runs under -race in CI,
// so the baseline bookkeeping is also proven race-clean against the
// pool's fan-out.
func TestWarmStartDeltaEmptyProperty(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		arts := table4Baseline(t, n)
		for _, j := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("N=%d/j=%d", n, j), func(t *testing.T) {
				eng := NewEngine(j)
				if err := eng.WarmStart(arts...); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Table4(); err != nil {
					t.Fatal(err)
				}
				rep := eng.Cache().Delta([]string{"experiments", "table4"})
				if !rep.Empty() {
					t.Fatalf("identical re-run produced a delta: %s", rep.Summary())
				}
				if rep.Fresh != 0 {
					t.Errorf("complete baseline still left %d fresh executions", rep.Fresh)
				}
				if rep.BaselineHits == 0 || rep.BaselineHits != rep.Unchanged {
					t.Errorf("provenance counters inconsistent: %s", rep.Summary())
				}
			})
		}
	}
}

// TestWarmStartDeltaVerifyProperty: verify mode recomputes every covered
// evaluation instead of trusting it; on a deterministic engine the report
// is still empty (everything fresh, everything bit-identical), which is
// exactly the variability-monitor invariant the mode exists to watch.
func TestWarmStartDeltaVerifyProperty(t *testing.T) {
	arts := table4Baseline(t, 2)
	eng := NewEngine(4)
	if err := eng.Cache().WarmStart(true, arts...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Table4(); err != nil {
		t.Fatal(err)
	}
	rep := eng.Cache().Delta([]string{"experiments", "table4"})
	if !rep.Empty() {
		t.Fatalf("deterministic engine diverged from its own baseline: %s", rep.Summary())
	}
	if rep.BaselineHits != 0 || rep.Fresh == 0 || rep.Unchanged != rep.Fresh {
		t.Errorf("verify-mode provenance wrong: %s", rep.Summary())
	}
}

// TestWarmStartDeltaVerifyFlagsPerturbedBaseline: a baseline whose
// recorded bits were tampered with (one result off by one ULP) is caught
// by verify mode as exactly one changed key.
func TestWarmStartDeltaVerifyFlagsPerturbedBaseline(t *testing.T) {
	arts := table4Baseline(t, 1)
	perturbed := ""
	for i := range arts[0].Runs {
		r := &arts[0].Runs[i]
		if r.Err != "" {
			continue
		}
		if r.IsVec && len(r.Vec) > 0 {
			r.Vec[0]++
		} else if !r.IsVec && math.Float64frombits(r.Scalar) != 0 {
			r.Scalar++
		} else {
			continue
		}
		perturbed = r.Key
		break
	}
	if perturbed == "" {
		t.Fatal("baseline holds no finite record to perturb")
	}
	eng := NewEngine(2)
	if err := eng.Cache().WarmStart(true, arts...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Table4(); err != nil {
		t.Fatal(err)
	}
	rep := eng.Cache().Delta(nil)
	if len(rep.Changed) != 1 || rep.Changed[0].Key != perturbed {
		t.Fatalf("perturbation not pinpointed: changed=%+v want key %q", rep.Changed, perturbed)
	}
	if len(rep.New) != 0 || len(rep.Dropped) != 0 {
		t.Errorf("perturbation leaked into new/dropped: %s", rep.Summary())
	}
}

// TestDeltaReportRequiresEnable: Delta on a never-warm-started cache is
// nil, not an empty report — there is no baseline to be empty against —
// while a warm start with no artifacts still turns it on.
func TestDeltaReportRequiresEnable(t *testing.T) {
	eng := NewEngine(1)
	if rep := eng.Cache().Delta(nil); rep != nil {
		t.Fatalf("Delta without WarmStart = %s, want nil", rep.Summary())
	}
	if err := eng.WarmStart(); err != nil {
		t.Fatal(err)
	}
	if rep := eng.Cache().Delta(nil); rep == nil || !rep.Empty() {
		t.Fatalf("Delta after an empty WarmStart = %v, want an empty report", rep)
	}
}
