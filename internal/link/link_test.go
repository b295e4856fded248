package link

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/prog"
)

// testProgram builds a small two-file program:
//
//	math.cpp:   Dot (exported, reduction), Scale (exported),
//	            helper (internal, mul-add, called by Dot)
//	driver.cpp: Main (exported, calls Dot, Scale)
func testProgram() *prog.Program {
	p := prog.New("linktest")
	p.AddFile("math.cpp",
		&prog.Symbol{Name: "Dot", Exported: true, Work: 4, FPOps: 6,
			Features: prog.Features{Reduction: true, MulAdd: true},
			Callees:  []string{"helper"}},
		&prog.Symbol{Name: "Scale", Exported: true, Work: 1, FPOps: 2,
			Features: prog.Features{ShortExpr: true}},
		&prog.Symbol{Name: "helper", Exported: false, Work: 1, FPOps: 3,
			Features: prog.Features{MulAdd: true}},
	)
	p.AddFile("driver.cpp",
		&prog.Symbol{Name: "Main", Exported: true, Work: 2, FPOps: 4,
			Features: prog.Features{SqrtLibm: true},
			Callees:  []string{"Dot", "Scale"}},
	)
	return p
}

// comp returns the compilation providing the machine's current frame, or
// the baseline outside any frame: the exact binding the tests assert,
// where applications may read only Compiler.
func (m *Machine) comp() comp.Compilation {
	if len(m.stack) == 0 {
		return m.ex.baseline
	}
	return m.ex.comps[m.stack[len(m.stack)-1].comp]
}

var (
	baseC = comp.Baseline()
	varC  = comp.Compilation{Compiler: comp.GCC, OptLevel: "-O3",
		Switches: "-funsafe-math-optimizations -mavx2 -mfma"}
)

func TestFullBuildResolvesEverySymbol(t *testing.T) {
	p := testProgram()
	ex, err := FullBuild(p, varC)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ex.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	env, done := m.Fn(p.MustSymbol("Dot"))
	if m.comp() != varC {
		t.Fatalf("Dot bound to %s, want %s", m.comp(), varC)
	}
	_ = env
	done()
	if m.Depth() != 0 {
		t.Fatalf("stack depth %d after done", m.Depth())
	}
}

// TestFnRejectsForeignSymbol: Fn enters only symbols registered in the
// executable's program. A same-named symbol of another program, or one
// registered nowhere, panics with a message naming the symbol and the
// program.
func TestFnRejectsForeignSymbol(t *testing.T) {
	ex, err := FullBuild(testProgram(), baseC)
	if err != nil {
		t.Fatal(err)
	}
	m := newTestMachine(t, ex)
	for _, sym := range []*prog.Symbol{
		testProgram().MustSymbol("Dot"),
		{Name: "Loose"},
	} {
		msg := fnPanic(m, sym)
		if !strings.Contains(msg, fmt.Sprintf("%q", sym.Name)) || !strings.Contains(msg, `"linktest"`) {
			t.Errorf("Fn(%s): panic %q does not name the symbol and the program", sym.Name, msg)
		}
		if m.Depth() != 0 {
			t.Errorf("Fn(%s) pushed a frame before panicking", sym.Name)
		}
	}
}

// fnPanic calls m.Fn(sym) and returns its panic message, "" if none.
func fnPanic(m *Machine, sym *prog.Symbol) (msg string) {
	defer func() { msg, _ = recover().(string) }()
	_, done := m.Fn(sym)
	done()
	return ""
}

func TestLinkValidation(t *testing.T) {
	p := testProgram()
	if _, err := Link(Plan{}); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := Link(Plan{Prog: p, Baseline: baseC,
		Files: []Override{{"nosuch.cpp", varC}}}); err == nil {
		t.Fatal("unknown file accepted")
	}
	if _, err := Link(Plan{Prog: p, Baseline: baseC,
		Symbols: []Override{{"nosuch", varC}}}); err == nil {
		t.Fatal("unknown symbol accepted")
	}
	_, err := Link(Plan{Prog: p, Baseline: baseC,
		Symbols: []Override{{"helper", varC}}})
	if !errors.Is(err, ErrDuplicateStrong) {
		t.Fatalf("overriding internal symbol: err = %v, want ErrDuplicateStrong", err)
	}
}

func TestFileMixBinding(t *testing.T) {
	p := testProgram()
	ex, err := Link(FileMixPlan(p, baseC, varC, []string{"math.cpp"}))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ex.NewMachine()
	_, done := m.Fn(p.MustSymbol("Dot"))
	if m.comp() != varC {
		t.Fatalf("math.cpp symbol bound to %s", m.comp())
	}
	done()
	_, done = m.Fn(p.MustSymbol("Main"))
	if m.comp() != baseC {
		t.Fatalf("driver.cpp symbol bound to %s", m.comp())
	}
	done()
}

func TestInternalSymbolFollowsCallerCopy(t *testing.T) {
	p := testProgram()
	// Symbol mix: Dot overridden with the variable compilation.
	ex, err := Link(SymbolMixPlan(p, baseC, varC, []string{"Dot"}))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Crashes() {
		t.Skip("this (compilation,file) pair is ABI-hazardous by the deterministic rule")
	}
	m, _ := ex.NewMachine()

	// Called under Dot (variable copy), helper binds to the variable
	// compilation with fPIC.
	_, doneDot := m.Fn(p.MustSymbol("Dot"))
	wantVar := varC.WithFPIC()
	if got := m.comp(); got != wantVar {
		t.Fatalf("Dot bound to %s, want %s", got, wantVar)
	}
	_, doneHelper := m.Fn(p.MustSymbol("helper"))
	if got := m.comp(); got != wantVar {
		t.Fatalf("helper under Dot bound to %s, want %s", got, wantVar)
	}
	doneHelper()
	doneDot()

	// Called under Scale (baseline copy of the same file), helper binds to
	// the baseline (fPIC) compilation.
	_, doneScale := m.Fn(p.MustSymbol("Scale"))
	wantBase := baseC.WithFPIC()
	if got := m.comp(); got != wantBase {
		t.Fatalf("Scale bound to %s, want %s", got, wantBase)
	}
	_, doneHelper = m.Fn(p.MustSymbol("helper"))
	if got := m.comp(); got != wantBase {
		t.Fatalf("helper under Scale bound to %s, want %s", got, wantBase)
	}
	doneHelper()
	doneScale()

	// Called with no same-file caller, helper binds to the file-level
	// compilation (baseline: no file override in a symbol mix).
	_, doneHelper = m.Fn(p.MustSymbol("helper"))
	if got := m.comp(); got != baseC {
		t.Fatalf("bare helper bound to %s, want %s", got, baseC)
	}
	doneHelper()
}

func TestCrossFileCalleeUnaffectedByCallerCopy(t *testing.T) {
	p := testProgram()
	ex, err := Link(SymbolMixPlan(p, baseC, varC, []string{"Main"}))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Crashes() {
		t.Skip("ABI-hazardous pair")
	}
	m, _ := ex.NewMachine()
	_, doneMain := m.Fn(p.MustSymbol("Main"))
	// Dot is exported and lives in another file: it keeps its own binding.
	_, doneDot := m.Fn(p.MustSymbol("Dot"))
	if got := m.comp(); got != baseC {
		t.Fatalf("exported cross-file callee bound to %s, want baseline", got)
	}
	doneDot()
	doneMain()
}

func TestCrashingExecutable(t *testing.T) {
	p := testProgram()
	// Find an icpc compilation/file pair that triggers the deterministic
	// file-mix hazard.
	var crashed *Executable
	for _, c := range comp.Matrix() {
		if c.Compiler != comp.ICPC {
			continue
		}
		ex, err := Link(FileMixPlan(p, baseC, c, []string{"math.cpp"}))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Crashes() {
			crashed = ex
			break
		}
	}
	if crashed == nil {
		t.Skip("no hazardous pair among the matrix for this tiny program")
	}
	if _, err := crashed.NewMachine(); !errors.Is(err, ErrSegfault) {
		t.Fatalf("NewMachine on crashing executable: %v", err)
	}
}

func TestGccGccMixNeverCrashes(t *testing.T) {
	p := testProgram()
	for _, c := range comp.Matrix() {
		if c.Compiler != comp.GCC {
			continue
		}
		ex, err := Link(FileMixPlan(p, baseC, c, p.FileNames()))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Crashes() {
			t.Fatalf("gcc/gcc file mix crashed for %s", c)
		}
	}
}

func TestIcpcDriverSubstitutesSVML(t *testing.T) {
	p := testProgram()
	icpcO0 := comp.Compilation{Compiler: comp.ICPC, OptLevel: "-O0"}
	ex, err := FullBuild(p, icpcO0)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ex.NewMachine()
	env, done := m.Fn(p.MustSymbol("Main")) // Main has SqrtLibm
	defer done()
	if !env.Sem().ApproxMath {
		t.Fatal("icpc-driven link did not substitute approximate libm at -O0")
	}
	// The same compilation's objects linked by g++ lose the substitution.
	ex2, err := Link(FileMixPlan(p, baseC, icpcO0, p.FileNames()))
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Crashes() {
		t.Skip("hazardous pair")
	}
	m2, _ := ex2.NewMachine()
	env2, done2 := m2.Fn(p.MustSymbol("Main"))
	defer done2()
	if env2.Sem().ApproxMath {
		t.Fatal("g++-driven link still substituted SVML")
	}
}

func TestInjectionPlanReachesEnv(t *testing.T) {
	p := testProgram()
	inj := fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.125}
	ci := baseC.WithInjection("Dot", inj)
	ex, err := FullBuild(p, ci)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ex.NewMachine()
	env, done := m.Fn(p.MustSymbol("Dot"))
	if !env.Injected() {
		t.Fatal("injected compilation produced clean env for target symbol")
	}
	done()
	env2, done2 := m.Fn(p.MustSymbol("Scale"))
	if env2.Injected() {
		t.Fatal("injection leaked to non-target symbol")
	}
	done2()
}

func TestCostReflectsMixedResolution(t *testing.T) {
	p := testProgram()
	full, _ := FullBuild(p, comp.PerfReference())
	o0, _ := FullBuild(p, baseC)
	cFull := full.Cost("Main")
	cO0 := o0.Cost("Main")
	if cO0 <= cFull {
		t.Fatalf("-O0 cost %g not slower than -O2 cost %g", cO0, cFull)
	}
	// Mixed: only math.cpp at -O0 should cost between the two extremes.
	mix, _ := Link(FileMixPlan(p, comp.PerfReference(), baseC, []string{"math.cpp"}))
	cMix := mix.Cost("Main")
	if !(cFull < cMix && cMix < cO0) {
		t.Fatalf("mixed cost %g not between %g and %g", cMix, cFull, cO0)
	}
}

// TestCostSumsWorkTimesSpeed: a run costs the sum, over the symbols it
// reaches, of each symbol's work times its compilation's speed factor.
func TestCostSumsWorkTimesSpeed(t *testing.T) {
	p := testProgram()
	ex, err := FullBuild(p, comp.PerfReference())
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, name := range []string{"Dot", "Main", "Scale", "helper"} { // Cost sums in name order
		s := p.MustSymbol(name)
		want += s.Work * comp.SpeedFactor(comp.PerfReference(), s)
	}
	if got := ex.Cost("Main"); got != want {
		t.Fatalf("Cost(Main) = %g, want %g", got, want)
	}
}

// TestCostEmptyAndAdditive: no executed symbols cost nothing, and cost
// accumulates over the executed set.
func TestCostEmptyAndAdditive(t *testing.T) {
	p := testProgram()
	ex, err := FullBuild(p, comp.PerfReference())
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Cost(); got != 0 {
		t.Errorf("Cost() = %g", got)
	}
	one := ex.Cost("Dot")
	two := ex.Cost("Dot", "Scale")
	if two <= one {
		t.Errorf("adding a symbol did not add cost: %g -> %g", one, two)
	}
}

func TestCostDeterministic(t *testing.T) {
	p := testProgram()
	ex, _ := FullBuild(p, varC)
	if ex.Cost("Main") != ex.Cost("Main") {
		t.Fatal("cost not deterministic")
	}
}

func TestMachineCompOutsideFrame(t *testing.T) {
	p := testProgram()
	ex, _ := Link(Plan{Prog: p, Baseline: baseC})
	m, _ := ex.NewMachine()
	if m.comp() != baseC {
		t.Fatal("comp outside frame should be baseline")
	}
	if m.ex != ex {
		t.Fatal("machine runs the wrong executable")
	}
}

func TestFPICProbeBuild(t *testing.T) {
	p := testProgram()
	ex, err := Link(FPICProbePlan(p, baseC, varC, "math.cpp"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := ex.NewMachine()
	_, done := m.Fn(p.MustSymbol("Dot"))
	got := m.comp()
	done()
	if !got.FPIC {
		t.Fatalf("probe did not compile with -fPIC: %s", got)
	}
	if got.Compiler != varC.Compiler || got.OptLevel != varC.OptLevel {
		t.Fatalf("probe compilation wrong: %s", got)
	}
}

// TestLinkDeterministicWithMixedOverrides: a plan overriding two symbols
// of one file under different compilations, only one of which trips the
// symbol-mix hazard, crashes on every link, whichever symbol carries it
// (the hazard is checked per distinct (file, compilation) pair); and a
// plan naming two unknown files fails every link with the same error,
// naming the first in name order.
func TestLinkDeterministicWithMixedOverrides(t *testing.T) {
	p := testProgram()
	var hazard, clean *comp.Compilation
	for _, c := range comp.Matrix() {
		if c.Compiler != comp.GCC {
			continue
		}
		if comp.SymbolMixHazard(c, "math.cpp") {
			hazard = &c
		} else {
			clean = &c
		}
	}
	if hazard == nil || clean == nil {
		t.Fatal("no g++ matrix pair splits on the symbol-mix hazard of math.cpp")
	}
	for _, cs := range [][2]comp.Compilation{{*hazard, *clean}, {*clean, *hazard}} {
		plan := Plan{Prog: p, Baseline: baseC,
			Symbols: []Override{{"Dot", cs[0].WithFPIC()}, {"Scale", cs[1].WithFPIC()}}}
		for range 200 {
			ex, err := Link(plan)
			if err != nil {
				t.Fatal(err)
			}
			if !ex.Crashes() {
				t.Fatalf("Dot under %s, Scale under %s: a link did not crash", cs[0], cs[1])
			}
		}
	}

	bad := FileMixPlan(p, baseC, varC, []string{"nosuch2.cpp", "math.cpp", "nosuch1.cpp"})
	const want = `link: plan names unknown file "nosuch1.cpp"`
	for range 200 {
		if _, err := Link(bad); err == nil || err.Error() != want {
			t.Fatalf("error %v, want %s", err, want)
		}
	}
}

// TestLinkRejectsUnsortedOverrides: an override list out of name order,
// or naming an entry twice, would key differently from the plan it
// spells, so Link refuses it.
func TestLinkRejectsUnsortedOverrides(t *testing.T) {
	p := testProgram()
	for _, plan := range []Plan{
		{Prog: p, Baseline: baseC, Files: []Override{{"math.cpp", varC}, {"driver.cpp", varC}}},
		{Prog: p, Baseline: baseC, Files: []Override{{"math.cpp", varC}, {"math.cpp", baseC}}},
		{Prog: p, Baseline: baseC, Symbols: []Override{{"Scale", varC}, {"Dot", varC}}},
	} {
		if _, err := Link(plan); err == nil || !strings.Contains(err.Error(), "not sorted and distinct") {
			t.Errorf("%s: err = %v, want a sort-order error", plan.Key(), err)
		}
	}
}
