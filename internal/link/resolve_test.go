package link

import (
	"sync"
	"testing"

	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/prog"
)

// referenceCompilation is the resolution rule as the plan states it,
// evaluated from the plan's lists on every call: the rule Link's tables
// must reproduce. An exported symbol binds to its Symbols entry if it has
// one; otherwise, if its file holds any symbol override, to the baseline
// -fPIC copy; otherwise to its file-level compilation. An internal symbol
// with no same-file caller binds to its file-level compilation.
func referenceCompilation(p Plan, sym *prog.Symbol) comp.Compilation {
	fileComp := func(file string) comp.Compilation {
		for _, o := range p.Files {
			if o.Name == file {
				return o.Comp
			}
		}
		return p.Baseline
	}
	if !sym.Exported {
		return fileComp(sym.File)
	}
	for _, o := range p.Symbols {
		if o.Name == sym.Name {
			return o.Comp
		}
	}
	for _, o := range p.Symbols {
		if p.Prog.Symbol(o.Name).File == sym.File {
			return p.Baseline.WithFPIC()
		}
	}
	return fileComp(sym.File)
}

// TestResolutionMatchesReference: for every plan shape the matrix and the
// bisect search build, Link's per-symbol table agrees with the reference
// rule for every symbol, a bare Machine.Fn binds to it, and Cost charges
// it.
func TestResolutionMatchesReference(t *testing.T) {
	p := testProgram()
	injected := baseC.WithInjection("Dot", fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.125})
	plans := []struct {
		name string
		plan Plan
	}{
		{"full", FullBuildPlan(p, varC)},
		{"file-mix", FileMixPlan(p, baseC, varC, []string{"math.cpp"})},
		{"symbol-mix-one", SymbolMixPlan(p, baseC, varC, []string{"Dot"})},
		{"symbol-mix-two-same-file", SymbolMixPlan(p, baseC, varC, []string{"Dot", "Scale"})},
		{"fpic-probe", FPICProbePlan(p, baseC, varC, "math.cpp")},
		{"injected-full", FullBuildPlan(p, injected)},
		{"injected-symbol-mix", SymbolMixPlan(p, baseC, injected, []string{"Dot"})},
	}
	for _, tc := range plans {
		t.Run(tc.name, func(t *testing.T) {
			ex, err := Link(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			var wantCost float64
			for _, sym := range p.Reachable("Main") {
				wantCost += sym.Work * comp.SpeedFactor(referenceCompilation(tc.plan, sym), sym)
			}
			if got := ex.Cost("Main"); got != wantCost {
				t.Errorf("Cost(Main) = %v, reference rule gives %v", got, wantCost)
			}
			m := newTestMachine(t, ex)
			for _, sym := range p.Symbols() {
				want := referenceCompilation(tc.plan, sym)
				if got := ex.comps[ex.symTab[sym.ID()]]; got != want {
					t.Errorf("%s: table binds %s, reference rule %s", sym.Name, got, want)
				}
				_, done := m.Fn(sym)
				if got := m.comp(); got != want {
					t.Errorf("%s: bare Fn bound to %s, want %s", sym.Name, got, want)
				}
				done()
			}
		})
	}

	// Only the file that holds an overridden symbol is linked as two
	// -fPIC copies: its other exported symbols take the baseline -fPIC
	// copy, and exported symbols of other files keep the plain baseline.
	ex, err := Link(SymbolMixPlan(p, baseC, varC, []string{"Dot"}))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]comp.Compilation{
		"Dot":   varC.WithFPIC(),
		"Scale": baseC.WithFPIC(),
		"Main":  baseC,
	} {
		if got := ex.comps[ex.symTab[p.MustSymbol(name).ID()]]; got != want {
			t.Errorf("%s bound to %s, want %s", name, got, want)
		}
	}
}

// TestEnvSharing pins which entries share a run-scoped fp.Env: one per
// (symbol, providing copy), so an injection's dynamic counter accumulates
// across calls, while distinct symbols and distinct copies never share.
func TestEnvSharing(t *testing.T) {
	p := testProgram()

	inj := fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.125}
	ex, err := FullBuild(p, baseC.WithInjection("Dot", inj))
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, ex)
	first, done := m.Fn(p.MustSymbol("Dot"))
	first.Add(1, 2)
	done()
	again, done := m.Fn(p.MustSymbol("Dot"))
	again.Add(1, 2)
	done()
	if again != first {
		t.Fatal("second entry of Dot under one compilation got a fresh env")
	}
	if n := again.OpsExecuted(); n != 2 {
		t.Fatalf("injected Dot counted %d ops over two entries, want 2", n)
	}

	ex, err = Link(SymbolMixPlan(p, baseC, varC, []string{"Dot", "Scale"}))
	if err != nil {
		t.Fatal(err)
	}
	m = newTestMachine(t, ex)
	dot, doneDot := m.Fn(p.MustSymbol("Dot"))
	dotComp := m.comp()
	doneDot()
	scale, doneScale := m.Fn(p.MustSymbol("Scale"))
	scaleComp := m.comp()
	doneScale()
	if dotComp != scaleComp {
		t.Fatalf("overrides bound to %s and %s, want one compilation", dotComp, scaleComp)
	}
	if dot == scale {
		t.Fatal("two overridden symbols with equal compilations share one env")
	}

	ex, err = Link(SymbolMixPlan(p, baseC, varC, []string{"Dot"}))
	if err != nil {
		t.Fatal(err)
	}
	m = newTestMachine(t, ex)
	helperUnder := func(caller string) *fp.Env {
		_, doneCaller := m.Fn(p.MustSymbol(caller))
		defer doneCaller()
		env, done := m.Fn(p.MustSymbol("helper"))
		done()
		return env
	}
	underDot, underScale := helperUnder("Dot"), helperUnder("Scale")
	if underDot == underScale {
		t.Fatal("helper reached from both -fPIC copies shares one env")
	}
	if helperUnder("Dot") != underDot || helperUnder("Scale") != underScale {
		t.Fatal("helper re-entered from one copy got a fresh env")
	}
}

// TestInjectedEnvIsPerRun: every run copies its Envs from the class into
// its own slots, so two Machines of one injected executable never share an
// Env, count operations apart, and leave the class's Envs as built, even
// when they run concurrently (under -race, a shared Env would also be
// reported as a race). An injected class shares its base class's Envs.
func TestInjectedEnvIsPerRun(t *testing.T) {
	p := testProgram()
	inj := fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.125}
	ex, err := FullBuild(p, baseC.WithInjection("Dot", inj))
	if err != nil {
		t.Fatal(err)
	}
	// run enters Dot (injected) for ops additions, then Scale (not).
	run := func(m *Machine, ops int) (dot, scale *fp.Env) {
		dot, done := m.Fn(p.MustSymbol("Dot"))
		for range ops {
			dot.Add(1, 2)
		}
		done()
		scale, done = m.Fn(p.MustSymbol("Scale"))
		scale.Mul(2, 3)
		done()
		return dot, scale
	}
	dot1, scale1 := run(newTestMachine(t, ex), 3)
	dot2, scale2 := run(newTestMachine(t, ex), 5)
	if dot1 == dot2 || scale1 == scale2 {
		t.Fatal("two runs share an Env")
	}
	if n1, n2 := dot1.OpsExecuted(), dot2.OpsExecuted(); n1 != 3 || n2 != 5 {
		t.Fatalf("injected Envs counted %d and %d ops, want 3 and 5", n1, n2)
	}
	base := classOf(p, baseC, baseC.Compiler)
	if cl := ex.classes[0]; &cl.envs[0] != &base.envs[0] {
		t.Fatal("an injected class holds its own Envs instead of its base class's")
	}

	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := ex.NewMachine()
			if err != nil {
				t.Error(err)
				return
			}
			for range 50 {
				run(m, 1)
			}
		}()
	}
	wg.Wait()
	if cl := ex.classes[0]; cl.injEnv.OpsExecuted() != 0 || cl.injEnv.Reads() != fp.ReadsFTZ {
		t.Fatal("runs changed the class's injected Env")
	}
	if n := dot1.OpsExecuted(); n != 3 {
		t.Fatalf("other runs moved a finished run's injected counter to %d", n)
	}
}

// TestFnSteadyStateAllocs: once every (symbol, copy) has its env, entering
// and leaving a function allocates nothing.
func TestFnSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m, s := fnBenchMachine(t)
	callChain(m, s)
	if n := testing.AllocsPerRun(100, func() { callChain(m, s) }); n != 0 {
		t.Fatalf("Fn+done allocated %v times per call chain, want 0", n)
	}
}

// BenchmarkMachineFn times one Main→Dot→helper call chain, plus Scale,
// on a symbol-mix executable: the internal helper resolves through the
// stack walk, the rest through the link table.
func BenchmarkMachineFn(b *testing.B) {
	m, s := fnBenchMachine(b)
	b.ReportAllocs()
	for b.Loop() {
		callChain(m, s)
	}
}

// chainSyms are the handles callChain enters.
type chainSyms struct{ main, dot, helper, scale *prog.Symbol }

func fnBenchMachine(tb testing.TB) (*Machine, chainSyms) {
	tb.Helper()
	p := testProgram()
	ex, err := Link(SymbolMixPlan(p, baseC, varC, []string{"Dot"}))
	if err != nil {
		tb.Fatal(err)
	}
	s := chainSyms{p.MustSymbol("Main"), p.MustSymbol("Dot"), p.MustSymbol("helper"), p.MustSymbol("Scale")}
	return newTestMachine(tb, ex), s
}

func newTestMachine(tb testing.TB, ex *Executable) *Machine {
	tb.Helper()
	m, err := ex.NewMachine()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func callChain(m *Machine, s chainSyms) {
	_, doneMain := m.Fn(s.main)
	_, doneDot := m.Fn(s.dot)
	_, doneHelper := m.Fn(s.helper)
	doneHelper()
	doneDot()
	_, doneScale := m.Fn(s.scale)
	doneScale()
	doneMain()
}
