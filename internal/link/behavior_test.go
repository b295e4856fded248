package link

import (
	"math"
	"testing"

	"repro/internal/comp"
	"repro/internal/fp"
)

// mustLink links a plan or fails the test.
func mustLink(t *testing.T, p Plan) *Executable {
	t.Helper()
	ex, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// semDiffs counts the symbols whose semantics differ between two classes
// of one program.
func semDiffs(a, b *class) int {
	n := 0
	for i := range a.sems {
		if a.sems[i] != b.sems[i] {
			n++
		}
	}
	return n
}

// TestBehaviorKeySeparates: Executable.Behavior is a trust boundary — the
// run memo shares a Result between executables whose keys are equal — so
// changing exactly one input a Machine reads must change the key. Each
// case holds every other input fixed.
func TestBehaviorKeySeparates(t *testing.T) {
	p := testProgram()
	gccO2 := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O2"}
	inj := fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.25}
	injected := func(sym string, inj fp.Injection) *Executable {
		return mustLink(t, FullBuildPlan(p, varC.WithInjection(sym, inj)))
	}

	// One symbol's semantics: two compilations of one compiler whose
	// classes differ in exactly one symbol.
	var semA, semB comp.Compilation
	matrix := comp.Matrix()
search:
	for i, a := range matrix {
		for _, b := range matrix[i+1:] {
			if a.Compiler == b.Compiler && semDiffs(classOf(p, a, a.Compiler), classOf(p, b, a.Compiler)) == 1 {
				semA, semB = a, b
				break search
			}
		}
	}
	if semA.Compiler == "" {
		t.Fatal("no matrix pair differs in exactly one symbol's semantics")
	}

	// The approx-math driver changes only Main's semantics (SqrtLibm).
	withDriver := func(driver string) *Executable {
		pl := FullBuildPlan(p, gccO2)
		pl.Driver = driver
		return mustLink(t, pl)
	}

	// Equal semantics under two compiler names, as the variable side of
	// one file mix: only the class's compiler name differs.
	clangO0 := comp.Compilation{Compiler: comp.Clang, OptLevel: "-O0"}
	gccO1 := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O1"}
	if semDiffs(classOf(p, clangO0, baseC.Compiler), classOf(p, gccO1, baseC.Compiler)) != 0 {
		t.Fatal("clang++ -O0 and g++ -O1 should generate equal semantics")
	}
	// The baseline compiler alone: every file overridden by one
	// compilation, so comps and symTab are equal.
	allFiles := func(base comp.Compilation) *Executable {
		return mustLink(t, Plan{Prog: p, Baseline: base, Driver: comp.Clang,
			FileComp: map[string]comp.Compilation{"math.cpp": clangO0, "driver.cpp": clangO0}})
	}

	// The crash flag alone.
	crashed := mustLink(t, FullBuildPlan(p, varC))
	crashed.crash = true

	// An internal symbol's binding alone: helper follows math.cpp's
	// baseline copy in a Dot symbol mix; rebind it to Dot's copy.
	mix := mustLink(t, SymbolMixPlan(p, baseC, varC, []string{"Dot"}))
	rebound := mustLink(t, SymbolMixPlan(p, baseC, varC, []string{"Dot"}))
	helper := p.MustSymbol("helper").ID()
	rebound.symTab[helper] = rebound.symTab[p.MustSymbol("Dot").ID()]
	if rebound.symTab[helper] == mix.symTab[helper] {
		t.Fatal("rebinding helper changed nothing")
	}

	// Two equal injection plans as separate pointers keep separate Env
	// counters; one shared pointer keeps one.
	c1 := varC.WithInjection("helper", inj)
	c2 := varC.WithInjection("helper", inj)
	shared := mustLink(t, Plan{Prog: p, Baseline: baseC,
		FileComp: map[string]comp.Compilation{"math.cpp": c1, "driver.cpp": c1}})
	separate := mustLink(t, Plan{Prog: p, Baseline: baseC,
		FileComp: map[string]comp.Compilation{"math.cpp": c1, "driver.cpp": c2}})

	nextEps := inj
	nextEps.Eps = math.Nextafter(inj.Eps, 1)
	posZero, negZero := inj, inj
	posZero.Eps, negZero.Eps = 0, math.Copysign(0, -1)
	otherIdx, otherOp := inj, inj
	otherIdx.OpIndex, otherOp.Op = 2, fp.InjSub

	for _, tc := range []struct {
		name string
		a, b *Executable
	}{
		{"one symbol's semantics", mustLink(t, FullBuildPlan(p, semA)), mustLink(t, FullBuildPlan(p, semB))},
		{"approx-math link driver", withDriver(comp.GCC), withDriver(comp.ICPC)},
		{"injection target", injected("Dot", inj), injected("Scale", inj)},
		{"injection op index", injected("Dot", inj), injected("Dot", otherIdx)},
		{"injection op", injected("Dot", inj), injected("Dot", otherOp)},
		{"injection eps last bit", injected("Dot", inj), injected("Dot", nextEps)},
		{"injection eps sign of zero", injected("Dot", posZero), injected("Dot", negZero)},
		{"crash flag", mustLink(t, FullBuildPlan(p, varC)), crashed},
		{"compiler name under equal semantics",
			mustLink(t, FileMixPlan(p, baseC, clangO0, []string{"math.cpp"})),
			mustLink(t, FileMixPlan(p, baseC, gccO1, []string{"math.cpp"}))},
		{"baseline compiler", allFiles(baseC), allFiles(clangO0)},
		{"internal symbol rebinding", mix, rebound},
		{"equal injection plans as separate pointers", shared, separate},
	} {
		if tc.a.Behavior() == tc.b.Behavior() {
			t.Errorf("%s: keys equal (plans %q and %q)", tc.name, tc.a.Key(), tc.b.Key())
		}
	}
}

// TestBehaviorKeyIgnoresSpelling: the key identifies what an executable
// does, not how its plan was spelled — compilations generating equal code
// share it even though their plan keys differ, which is all the run memo
// saves. A driver whose link step changes nothing is one such spelling.
func TestBehaviorKeyIgnoresSpelling(t *testing.T) {
	p := testProgram()
	gccO1 := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O1"}
	clangDriver := FullBuildPlan(p, gccO1)
	clangDriver.Driver = comp.Clang
	for _, tc := range []struct {
		name string
		a, b Plan
	}{
		{"g++ -O0 and -O1", FullBuildPlan(p, baseC), FullBuildPlan(p, gccO1)},
		{"g++ and clang++ drivers", FullBuildPlan(p, gccO1), clangDriver},
		{"injection into a symbol the program lacks", FullBuildPlan(p, varC),
			FullBuildPlan(p, varC.WithInjection("Missing", fp.Injection{Op: fp.InjAdd, Eps: 0.5}))},
	} {
		a, b := mustLink(t, tc.a), mustLink(t, tc.b)
		if a.Key() == b.Key() {
			t.Fatalf("%s: plan keys equal; the case tests nothing", tc.name)
		}
		if a.Behavior() != b.Behavior() {
			t.Errorf("%s: behaviour keys differ", tc.name)
		}
	}
}

// TestMachineCompilerIsClassCompiler: Compiler reports the frame's
// compiler name, and the baseline's outside any frame.
func TestMachineCompilerIsClassCompiler(t *testing.T) {
	p := testProgram()
	clangO0 := comp.Compilation{Compiler: comp.Clang, OptLevel: "-O0"}
	m := newTestMachine(t, mustLink(t, FileMixPlan(p, baseC, clangO0, []string{"math.cpp"})))
	if got := m.Compiler(); got != comp.GCC {
		t.Fatalf("outside any frame: %q, want the baseline's %q", got, comp.GCC)
	}
	_, done := m.Fn(p.MustSymbol("Dot"))
	if got := m.Compiler(); got != comp.Clang {
		t.Fatalf("in Dot: %q, want %q", got, comp.Clang)
	}
	done()
	_, done = m.Fn(p.MustSymbol("Main"))
	if got := m.Compiler(); got != comp.GCC {
		t.Fatalf("in Main: %q, want %q", got, comp.GCC)
	}
	done()
}
