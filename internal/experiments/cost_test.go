package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/apps/laghos"
	"repro/internal/apps/lulesh"
	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/fp"
	"repro/internal/link"
	"repro/internal/prog"
)

// mfemCostDigest is the SHA-256 of the MFEM matrix's runtimes as
// costDigest lays them out, as linked full builds charge them: 19
// reference times (g++ -O2) and 244 × 19 cell times.
const mfemCostDigest = "67b810351087bc2aaa2dc244e2190a6157b49de7a6baae08a9ac2e9a4ecf3549"

// TestMatrixCostsMatchFullBuilds: every runtime the MFEM matrix reports —
// each cell's Time and each test's reference time — equals what linking
// the cell's full build and charging the test's root gives, bit for bit,
// whether the matrix is run by the engine or through the workflow wrapping
// it. The digest pins the bits themselves, so a build whose compiler fuses
// the cost sum into FMAs (GOAMD64=v3; ci.sh runs this test there) fails
// here even where it agrees with its own linked builds.
func TestMatrixCostsMatchFullBuilds(t *testing.T) {
	res, err := testEngine.Results()
	if err != nil {
		t.Fatal(err)
	}
	a, err := testEngine.Workflow().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*flit.Results{"engine": res, "workflow": a.Results} {
		if got := costDigest(t, r); got != mfemCostDigest {
			t.Errorf("%s: matrix cost digest %s, want %s", name, got, mfemCostDigest)
		}
	}
}

// costDigest checks every runtime of an unsharded matrix against its
// linked full build and returns the SHA-256 of their bits: per test in
// suite order, the reference time, then each cell's time in matrix order.
// A run of Time 1 makes Speedup read the reference time back exactly.
func costDigest(t *testing.T, r *flit.Results) string {
	t.Helper()
	s := r.Suite
	ref := s.Reference
	if ref == (comp.Compilation{}) {
		ref = s.Baseline
	}
	builds := make(map[string]*link.Executable, len(r.Matrix)+1)
	for _, c := range append(slices.Clip(r.Matrix), ref) {
		ex, err := link.FullBuild(s.Prog, c)
		if err != nil {
			t.Fatal(err)
		}
		builds[c.Key()] = ex
	}
	h := sha256.New()
	put := func(what string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: runtime %v (%#x), linked full build charges %v (%#x)",
				what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(got)))
	}
	for i, name := range r.TestNames() {
		root := s.Tests[i].Root()
		put(name+" reference", r.Speedup(flit.RunResult{Test: name, Time: 1}), builds[ref.Key()].Cost(root))
		runs := r.ForTest(name)
		if len(runs) != len(r.Matrix) {
			t.Fatalf("%s: %d cells for a %d-compilation matrix", name, len(runs), len(r.Matrix))
		}
		for j, rr := range runs {
			if rr.Comp != r.Matrix[j] {
				t.Fatalf("%s: cell %d is %s, the matrix has %s", name, j, rr.Comp, r.Matrix[j])
			}
			put(name+" under "+rr.Comp.String(), rr.Time, builds[rr.Comp.Key()].Cost(root))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fullBuildComps is every compilation the experiments build a whole
// program under: the matrix, the baseline, the performance reference and
// the two xlc++ builds of the Laghos study.
func fullBuildComps() []comp.Compilation {
	return append(comp.Matrix(), comp.Baseline(), comp.PerfReference(),
		comp.Compilation{Compiler: comp.XLC, OptLevel: "-O2"},
		comp.Compilation{Compiler: comp.XLC, OptLevel: "-O3"})
}

// TestFullBuildsAlwaysLink: RunMatrix derives runtimes without building
// and records a failed cell as that cell's error, so nothing in it can
// fail on a full build — which holds because linking a FullBuildPlan has
// no error path: the plan names no file and no symbol. Every program and
// every compilation the experiments use links.
func TestFullBuildsAlwaysLink(t *testing.T) {
	for _, p := range []*prog.Program{mfem.Program(), laghos.Program(), lulesh.Program()} {
		for _, c := range fullBuildComps() {
			if _, err := link.Link(link.FullBuildPlan(p, c)); err != nil {
				t.Errorf("%s under %s: %v", p.Name, c, err)
			}
		}
	}
}

// TestFullBuildNeedsNoFileMap: a full build names no file, yet links to the
// executable that sending every file to its compilation does — equal
// layout, equal crash flag and bit-equal cost from every test root — for
// every program and full-build compilation the experiments use, and for an
// injected compilation.
func TestFullBuildNeedsNoFileMap(t *testing.T) {
	for _, app := range []struct {
		p     *prog.Program
		roots []string
	}{
		{mfem.Program(), testRoots(mfem.AllCases())},
		{laghos.Program(), []string{laghos.NewCase().Root()}},
		{lulesh.Program(), []string{lulesh.NewCase().Root()}},
	} {
		p := app.p
		injected := comp.Baseline().WithInjection(p.Reachable(app.roots[0])[0].Name,
			fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.25})
		for _, c := range append(fullBuildComps(), injected) {
			everyFile := link.FileMixPlan(p, c, c, p.FileNames())
			if err := sameExecutable(everyFile, link.FullBuildPlan(p, c), app.roots); err != nil {
				t.Errorf("%s under %s: %v", p.Name, c, err)
			}
		}
	}
}

func testRoots(tests []flit.TestCase) []string {
	roots := make([]string, len(tests))
	for i, tc := range tests {
		roots[i] = tc.Root()
	}
	return roots
}

// sameExecutable links two plans and reports how their executables
// differ in layout, crash flag or the cost of any root, bits compared.
func sameExecutable(a, b link.Plan, roots []string) error {
	ea, err := link.Link(a)
	if err != nil {
		return err
	}
	eb, err := link.Link(b)
	if err != nil {
		return err
	}
	if ea.Layout() != eb.Layout() || ea.Crashes() != eb.Crashes() {
		return fmt.Errorf("layouts or crash flags differ (crash %v and %v)", ea.Crashes(), eb.Crashes())
	}
	for _, r := range roots {
		if x, y := ea.Cost(r), eb.Cost(r); math.Float64bits(x) != math.Float64bits(y) {
			return fmt.Errorf("cost from %s: %v and %v", r, x, y)
		}
	}
	return nil
}
