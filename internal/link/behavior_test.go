package link

import (
	"math"
	"slices"
	"sync"
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
	for i := range a.packed {
		if a.packed[i] != b.packed[i] {
			n++
		}
	}
	return n
}

// readAll runs every kind of Env operation, so every field counts as read.
func readAll(env *fp.Env) {
	env.Div(1, 3)
	env.MulAdd(1, 2, 3)
	env.Sqrt(2)
	env.Dot([]float64{1, 2}, []float64{3, 4})
}

// chainRun is one run of testProgram: Main calls Dot (which calls helper)
// and Scale, and Scale calls helper too; each function applies ops to its
// Env. With compiler set, Dot reads the compiler name.
type chainRun struct {
	ops      func(*fp.Env)
	compiler bool
	skip     string // a function the run never enters
}

func (r chainRun) run(t *testing.T, ex *Executable) *Trace {
	t.Helper()
	if ex.Crashes() {
		return &Trace{} // a crashing executable runs nothing
	}
	p := ex.prog
	m := newTestMachine(t, ex)
	enter := func(name string, body func()) {
		if name == r.skip {
			return
		}
		env, done := m.Fn(p.MustSymbol(name))
		defer done()
		r.ops(env)
		if body != nil {
			body()
		}
	}
	enter("Main", func() {
		enter("Dot", func() {
			if r.compiler {
				m.Compiler()
			}
			enter("helper", nil)
		})
		enter("Scale", func() { enter("helper", nil) })
	})
	return m.Trace()
}

// sameKey reports whether the run memo finds a and b under one key for
// trace tr: equal layouts (a trace projects only executables of its own
// layout) and equal projections.
func sameKey(a, b *Executable, tr *Trace) bool {
	return a.Layout() == b.Layout() &&
		string(a.AppendProjection(nil, tr)) == string(b.AppendProjection(nil, tr))
}

// TestBehaviorKeySeparates: the run memo is a trust boundary — it shares a
// Result between executables whose layouts and projections under a run's
// trace are equal — so changing exactly one input a run reads must change
// the key under that run's trace. Each case holds every other input fixed,
// and the run reads every field of every function it enters, plus the
// compiler name.
func TestBehaviorKeySeparates(t *testing.T) {
	p := testProgram()
	gccO1 := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O1"}
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

	// Equal semantics under two compiler names, as the variable side of
	// one file mix: only the class's compiler name differs.
	clangO0 := comp.Compilation{Compiler: comp.Clang, OptLevel: "-O0"}
	if semDiffs(classOf(p, clangO0, baseC.Compiler), classOf(p, gccO1, baseC.Compiler)) != 0 {
		t.Fatal("clang++ -O0 and g++ -O1 should generate equal semantics")
	}
	// The baseline compiler alone: every file overridden by one
	// compilation, so comps and symTab are equal.
	allFiles := func(base comp.Compilation) *Executable {
		return mustLink(t, Plan{Prog: p, Baseline: base,
			Files: []Override{{"driver.cpp", clangO0}, {"math.cpp", clangO0}}})
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
		Files: []Override{{"driver.cpp", c1}, {"math.cpp", c1}}})
	separate := mustLink(t, Plan{Prog: p, Baseline: baseC,
		Files: []Override{{"driver.cpp", c2}, {"math.cpp", c1}}})

	// One injection, carried by compilation 0 (math.cpp's, where helper
	// binds) or by compilation 1 (driver.cpp's, where helper never runs):
	// equal layouts and equal semantics everywhere, so only an injection
	// keyed by the slot that carries it tells them apart.
	onHelper := gccO1.WithInjection("helper", inj)
	injHere := mustLink(t, Plan{Prog: p, Baseline: onHelper,
		Files: []Override{{"driver.cpp", baseC}}})
	injThere := mustLink(t, Plan{Prog: p, Baseline: baseC,
		Files: []Override{{"driver.cpp", onHelper}}})

	nextEps := inj
	nextEps.Eps = math.Nextafter(inj.Eps, 1)
	posZero, negZero := inj, inj
	posZero.Eps, negZero.Eps = 0, math.Copysign(0, -1)
	otherIdx, otherOp := inj, inj
	otherIdx.OpIndex, otherOp.Op = 2, fp.InjSub

	run := chainRun{ops: readAll, compiler: true}
	for _, tc := range []struct {
		name string
		a, b *Executable
	}{
		{"one symbol's semantics", mustLink(t, FullBuildPlan(p, semA)), mustLink(t, FullBuildPlan(p, semB))},
		{"injection target", injected("Dot", inj), injected("Scale", inj)},
		{"injection op index", injected("Dot", inj), injected("Dot", otherIdx)},
		{"injection op", injected("Dot", inj), injected("Dot", otherOp)},
		{"injection eps last bit", injected("Dot", inj), injected("Dot", nextEps)},
		{"injection eps sign of zero", injected("Dot", posZero), injected("Dot", negZero)},
		{"injection carried by another compilation", injHere, injThere},
		{"crash flag", mustLink(t, FullBuildPlan(p, varC)), crashed},
		{"compiler name under equal semantics",
			mustLink(t, FileMixPlan(p, baseC, clangO0, []string{"math.cpp"})),
			mustLink(t, FileMixPlan(p, baseC, gccO1, []string{"math.cpp"}))},
		{"baseline compiler", allFiles(baseC), allFiles(clangO0)},
		{"internal symbol rebinding", mix, rebound},
		{"equal injection plans as separate pointers", shared, separate},
	} {
		for _, tr := range []*Trace{run.run(t, tc.a), run.run(t, tc.b)} {
			if sameKey(tc.a, tc.b, tr) {
				t.Errorf("%s: keys equal", tc.name)
			}
		}
	}
}

// TestBehaviorKeyIgnoresSpelling: the key identifies what a run read, not
// how the plan was spelled — executables agreeing on every value the run
// read share it even though their plan keys differ, which is all the run
// memo saves. Equal code is one such agreement; a field, a function or a
// compiler name the run never read is another.
func TestBehaviorKeyIgnoresSpelling(t *testing.T) {
	p := testProgram()
	gccO1 := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O1"}
	clangO0 := comp.Compilation{Compiler: comp.Clang, OptLevel: "-O0"}
	all := chainRun{ops: readAll, compiler: true}
	arithmetic := chainRun{ops: func(env *fp.Env) { env.Mul(env.Add(1, 2), 3) }}
	for _, tc := range []struct {
		name string
		run  chainRun
		a, b Plan
	}{
		{"g++ -O0 and -O1", all, FullBuildPlan(p, baseC), FullBuildPlan(p, gccO1)},
		{"injection into a symbol the program lacks", all, FullBuildPlan(p, varC),
			FullBuildPlan(p, varC.WithInjection("Missing", fp.Injection{Op: fp.InjAdd, Eps: 0.5}))},
		{"fields the run did not read", arithmetic, FullBuildPlan(p, baseC), FullBuildPlan(p, varC)},
		{"a function the run did not enter", chainRun{ops: readAll, skip: "Dot"},
			SymbolMixPlan(p, baseC, varC, []string{"Dot"}),
			SymbolMixPlan(p, baseC, comp.Compilation{Compiler: comp.GCC, OptLevel: "-O3"}, []string{"Dot"})},
		{"an injection into a function the run did not enter", chainRun{ops: readAll, skip: "Scale"},
			FullBuildPlan(p, varC), FullBuildPlan(p, varC.WithInjection("Scale", fp.Injection{Op: fp.InjAdd, Eps: 0.5}))},
		{"a compiler name the run did not read", chainRun{ops: readAll},
			FileMixPlan(p, baseC, clangO0, []string{"math.cpp"}),
			FileMixPlan(p, baseC, gccO1, []string{"math.cpp"})},
	} {
		if tc.a.Key() == tc.b.Key() {
			t.Fatalf("%s: plan keys equal; the case tests nothing", tc.name)
		}
		a, b := mustLink(t, tc.a), mustLink(t, tc.b)
		tr := tc.run.run(t, a)
		if !sameKey(a, b, tr) {
			t.Errorf("%s: keys differ", tc.name)
		}
	}
}

// TestMachineCompilerIsClassCompiler: Compiler reports the frame's
// compiler name, and the baseline's outside any frame, and the run's
// trace records that a compiler name was read only once one was.
func TestMachineCompilerIsClassCompiler(t *testing.T) {
	p := testProgram()
	clangO0 := comp.Compilation{Compiler: comp.Clang, OptLevel: "-O0"}
	m := newTestMachine(t, mustLink(t, FileMixPlan(p, baseC, clangO0, []string{"math.cpp"})))
	_, done := m.Fn(p.MustSymbol("Dot"))
	done()
	if m.Trace().compiler {
		t.Fatal("the trace records a compiler read before any")
	}
	if got := m.Compiler(); got != comp.GCC {
		t.Fatalf("outside any frame: %q, want the baseline's %q", got, comp.GCC)
	}
	if !m.Trace().compiler {
		t.Fatal("the trace does not record the compiler read")
	}
	_, done = m.Fn(p.MustSymbol("Dot"))
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

// TestTraceRecordsEnteredSlots: a trace lists exactly the (symbol,
// compilation) slots the run entered, each with what its Env read, and
// FlushSubnormals counts as read for every one of them. Traces of equal
// runs are Equal; reading a compiler name makes them differ.
func TestTraceRecordsEnteredSlots(t *testing.T) {
	p := testProgram()
	ex := mustLink(t, SymbolMixPlan(p, baseC, varC, []string{"Dot"}))
	run := func() *Machine {
		m := newTestMachine(t, ex)
		env, doneDot := m.Fn(p.MustSymbol("Dot"))
		env.Div(1, 3)
		_, doneHelper := m.Fn(p.MustSymbol("helper"))
		doneHelper()
		doneDot()
		env, doneScale := m.Fn(p.MustSymbol("Scale"))
		env.Sqrt(2)
		doneScale()
		return m
	}
	m, other := run(), run()
	if !m.Trace().Equal(other.Trace()) {
		t.Fatal("two equal runs traced differently")
	}
	other.Compiler()
	if m.Trace().Equal(other.Trace()) {
		t.Fatal("a compiler read left the trace equal")
	}
	slot := func(name string, c int32) int32 {
		return int32(p.MustSymbol(name).ID()*len(ex.comps)) + c
	}
	dotC := ex.symTab[p.MustSymbol("Dot").ID()]
	scaleC := ex.symTab[p.MustSymbol("Scale").ID()]
	want := map[int32]fp.Reads{
		slot("Dot", dotC):     fp.ReadsFTZ | fp.ReadsUnsafe,
		slot("helper", dotC):  fp.ReadsFTZ,
		slot("Scale", scaleC): fp.ReadsFTZ | fp.ReadsApprox,
	}
	tr := m.Trace()
	if len(tr.slots) != len(want) || !slices.IsSorted(tr.slots) {
		t.Fatalf("trace slots %v, want the %d entered ones in order", tr.slots, len(want))
	}
	for i, s := range tr.slots {
		if tr.reads[i] != want[s] {
			t.Errorf("slot %d read %#x, want %#x", s, tr.reads[i], want[s])
		}
	}
}

// TestMachinesTraceApart: two Machines of one executable run on two
// goroutines, each reading different fields of the same functions; each
// trace holds exactly its own reads (under -race, a shared Env would also
// be reported), and the class's Envs stay as built.
func TestMachinesTraceApart(t *testing.T) {
	p := testProgram()
	ex := mustLink(t, FullBuildPlan(p, varC.WithInjection("Dot", fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.5})))
	runs := []struct {
		ops  func(*fp.Env)
		want fp.Reads
	}{
		{func(env *fp.Env) { env.Div(1, 3) }, fp.ReadsFTZ | fp.ReadsUnsafe},
		{func(env *fp.Env) { env.Exp(1) }, fp.ReadsFTZ | fp.ReadsApprox},
	}
	traces := make([]*Trace, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := ex.NewMachine()
			if err != nil {
				t.Error(err)
				return
			}
			for range 200 {
				for _, name := range []string{"Main", "Dot", "helper", "Scale"} {
					env, done := m.Fn(p.MustSymbol(name))
					r.ops(env)
					done()
				}
			}
			traces[i] = m.Trace()
		}()
	}
	wg.Wait()
	for i, tr := range traces {
		if tr == nil {
			t.FailNow()
		}
		if len(tr.slots) != 4 {
			t.Errorf("run %d entered %d slots, want 4", i, len(tr.slots))
		}
		for k, r := range tr.reads {
			if r != runs[i].want {
				t.Errorf("run %d slot %d read %#x, want %#x", i, tr.slots[k], r, runs[i].want)
			}
		}
	}
	cl := ex.classes[0]
	if cl.injEnv.Reads() != fp.ReadsFTZ || cl.injEnv.OpsExecuted() != 0 {
		t.Error("runs changed the class's injected Env")
	}
	for _, env := range cl.envs {
		if env.Reads() != fp.ReadsFTZ {
			t.Error("runs changed a class's Env")
		}
	}
}

// TestUnenteredSlotsAreNotTraced: a symbol whose Env is fetched but never
// used still counts as entered; a Machine that enters nothing traces
// nothing, and its projection is the empty string.
func TestUnenteredSlotsAreNotTraced(t *testing.T) {
	p := testProgram()
	ex := mustLink(t, FullBuildPlan(p, varC))
	m := newTestMachine(t, ex)
	tr := m.Trace()
	if len(tr.slots) != 0 || len(ex.AppendProjection(nil, tr)) != 0 {
		t.Fatalf("an idle run traced %v", tr.slots)
	}
	_, done := m.Fn(p.MustSymbol("Scale"))
	done()
	if tr := m.Trace(); len(tr.slots) != 1 || tr.reads[0] != fp.ReadsFTZ {
		t.Fatalf("entering Scale traced %v %v", tr.slots, tr.reads)
	}
}
