package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/apps/laghos"
	"repro/internal/apps/lulesh"
	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/fp"
	"repro/internal/inject"
	"repro/internal/link"
	"repro/internal/prog"
)

// behaviorCells runs (plan, test) cells through one flit.Cache, as the
// engine does, and checks every run the memo shares against an uncached
// run of the same executable.
type behaviorCells struct {
	t     *testing.T
	cache *flit.Cache
	pairs map[string]int // shared runs by kind of plan
}

func (g *behaviorCells) add(kind string, p link.Plan, tests ...flit.TestCase) {
	g.t.Helper()
	b := link.NewBuilder(p)
	for _, tc := range tests {
		before := g.cache.Metrics().Execs.Hits
		got, gotErr := g.cache.RunAllPlanned(tc, b)
		if g.cache.Metrics().Execs.Hits == before {
			continue
		}
		ex, err := b.Build()
		if err != nil {
			g.t.Fatal(err)
		}
		want, wantErr := flit.RunAll(tc, ex)
		if d := sameRun(want, got, wantErr, gotErr); d != nil {
			g.t.Errorf("%s on %s: the memo shared a run that differs from running it: %v",
				flit.TestKey(tc), p.Key(), d)
		}
		g.pairs[kind]++
	}
}

// mixPlans are the Table 2 plans of one variable compilation: every
// single-file mix, every -fPIC probe and every single-symbol mix.
func mixPlans(p *prog.Program, base, variable comp.Compilation) []link.Plan {
	var out []link.Plan
	for _, f := range p.FileNames() {
		out = append(out,
			link.FileMixPlan(p, base, variable, []string{f}),
			link.FPICProbePlan(p, base, variable, f))
		for _, s := range p.ExportedSymbols(f) {
			out = append(out, link.SymbolMixPlan(p, base, variable, []string{s.Name}))
		}
	}
	return out
}

// sameRun reports whether two runs are bit for bit identical: equal
// errors, and equal Float64bits everywhere, NaN payloads included.
func sameRun(a, b flit.Result, aErr, bErr error) error {
	if fmt.Sprint(aErr) != fmt.Sprint(bErr) {
		return fmt.Errorf("errors %v and %v", aErr, bErr)
	}
	if a.IsVec() != b.IsVec() || len(a.Vec) != len(b.Vec) {
		return fmt.Errorf("shapes differ: %d and %d values", len(a.Vec), len(b.Vec))
	}
	if math.Float64bits(a.Scalar) != math.Float64bits(b.Scalar) {
		return fmt.Errorf("scalars %x and %x", math.Float64bits(a.Scalar), math.Float64bits(b.Scalar))
	}
	for i := range a.Vec {
		if x, y := math.Float64bits(a.Vec[i]), math.Float64bits(b.Vec[i]); x != y {
			return fmt.Errorf("value %d: %x and %x", i, x, y)
		}
	}
	return nil
}

// TestEqualBehaviorRunsIdentically is the other half of the run memo's
// trust boundary (link's TestBehaviorKeySeparates is the first): every run
// the memo shares gives the same Float64bits, NaN payloads included, and
// the same error as an uncached run of the executable it was shared with.
// The plans are the ones the memo shares between in practice — matrix
// full builds, Table 2 file and symbol mixes, the Laghos NaN-bug mixes
// (whose result reads the frame's compiler name) and injected LULESH
// builds with their bisect mixes.
func TestEqualBehaviorRunsIdentically(t *testing.T) {
	g := &behaviorCells{t: t, cache: flit.NewCache(), pairs: map[string]int{}}

	mp := mfem.Program()
	base := comp.Baseline()
	// A spread of examples, one of them under simulated MPI (its own
	// cache key), keeps the uncached runs affordable under -race.
	mfemTests := []flit.TestCase{mfem.NewCase(1), mfem.NewCase(3), mfem.NewCase(9),
		mfem.NewCase(13), mfem.NewCase(2).WithProcs(4)}
	matrix := comp.Matrix()
	for _, c := range matrix {
		g.add("matrix", link.FullBuildPlan(mp, c), mfemTests...)
	}
	for i := 0; i < len(matrix); i += 16 {
		for _, p := range mixPlans(mp, base, matrix[i]) {
			g.add("mfem mix", p, mfemTests[0])
		}
	}

	lp := laghos.Program()
	nan := &laghos.Case{Opt: laghos.Options{NaNBug: true}}
	gccO2 := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O2"}
	for _, v := range []comp.Compilation{
		{Compiler: comp.XLC, OptLevel: "-O2"},
		{Compiler: comp.XLC, OptLevel: "-O3"},
		{Compiler: comp.XLC, OptLevel: "-O3", Switches: "-qstrict=vectorprecision"},
		{Compiler: comp.GCC, OptLevel: "-O3"},
		{Compiler: comp.Clang, OptLevel: "-O2"},
	} {
		g.add("laghos", link.FullBuildPlan(lp, v), nan)
		for _, p := range mixPlans(lp, gccO2, v) {
			g.add("laghos", p, nan)
		}
	}

	up := lulesh.Program()
	ut := lulesh.NewCase()
	clangO2 := comp.Compilation{Compiler: comp.Clang, OptLevel: "-O2"}
	sites := inject.EnumerateSites(up)
	injected := 0
	for i := 0; i < len(sites); i += 20 {
		site := sites[i]
		file := up.MustSymbol(site.Symbol).File
		for _, op := range fp.AllInjectOps {
			v := clangO2.WithInjection(site.Symbol,
				fp.Injection{OpIndex: site.OpIndex, Op: op, Eps: inject.EpsFor(site, op)})
			// A file bisect tests both halves of the files: their plans
			// have equal layouts, with the injection carried by
			// compilation 0 in one and by compilation 1 in the other.
			files := up.FileNames()
			plans := []link.Plan{
				link.FullBuildPlan(up, v),
				link.FileMixPlan(up, clangO2, v, files),
				link.FileMixPlan(up, clangO2, v, files[:len(files)/2]),
				link.FileMixPlan(up, clangO2, v, files[len(files)/2:]),
				link.FileMixPlan(up, clangO2, v, []string{file}),
				link.FPICProbePlan(up, clangO2, v, file),
			}
			if a := up.ExportedAncestor(site.Symbol); a != "" {
				plans = append(plans, link.SymbolMixPlan(up, clangO2, v, []string{a}))
			}
			for _, p := range plans {
				g.add("injected", p, ut)
			}
			injected += len(plans)
		}
	}
	if injected < 200 {
		t.Fatalf("only %d injected plans", injected)
	}

	// Every kind of plan must give the memo something to share, or this
	// test shows nothing about it.
	for _, kind := range []string{"matrix", "mfem mix", "laghos", "injected"} {
		if g.pairs[kind] == 0 {
			t.Errorf("the memo shared no run among the %s plans", kind)
		}
	}
	m := g.cache.Metrics().Execs
	t.Logf("ran %d, shared %v, %d injected plans", m.Misses, g.pairs, injected)
}
