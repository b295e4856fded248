package link

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/prog"
)

// TestPlanKeyMatchesExecutableKey: for every plan shape the drivers build —
// full builds, file mixes, symbol mixes, the -fPIC probe, explicit and
// defaulted drivers, injections — Plan.Key must be the exact string the
// linked Executable's Key is. This equality is what lets the key-first
// cache answer a plan lookup from entries (and artifacts) recorded under
// executable keys.
func TestPlanKeyMatchesExecutableKey(t *testing.T) {
	p := testProgram()
	icpc := comp.Compilation{Compiler: comp.ICPC, OptLevel: "-O2", Switches: "-fp-model fast=2"}
	injected := baseC.WithInjection("Dot", fp.Injection{OpIndex: 2, Op: fp.InjMul, Eps: 0.375})
	plans := []Plan{
		FullBuildPlan(p, varC),
		FullBuildPlan(p, icpc),
		FullBuildPlan(p, injected),
		FileMixPlan(p, baseC, varC, []string{"math.cpp"}),
		FileMixPlan(p, baseC, icpc, p.FileNames()),
		SymbolMixPlan(p, baseC, varC, []string{"Dot", "Main"}),
		FPICProbePlan(p, baseC, varC, "driver.cpp"),
		{Prog: p, Baseline: baseC},                        // defaulted driver
		{Prog: p, Baseline: baseC, Driver: comp.ICPC},     // explicit driver
		{Prog: p, Baseline: varC, Driver: varC.Compiler},  // explicit == default
		{Prog: p, Baseline: injected, Driver: comp.Clang}, // injected baseline
	}
	seen := map[string]int{}
	for i, plan := range plans {
		ex, err := Link(plan)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if plan.Key() != ex.Key() {
			t.Errorf("plan %d: Plan.Key %q != Executable.Key %q", i, plan.Key(), ex.Key())
		}
		if j, dup := seen[plan.Key()]; dup && !samePlanShape(plans[j], plan) {
			t.Errorf("distinct plans %d and %d share key %q", j, i, plan.Key())
		}
		seen[plan.Key()] = i
	}
	// The defaulted and the explicitly spelled-out driver are the same plan.
	def := Plan{Prog: p, Baseline: varC}
	exp := Plan{Prog: p, Baseline: varC, Driver: varC.Compiler}
	if def.Key() != exp.Key() {
		t.Errorf("defaulted driver key %q != explicit driver key %q", def.Key(), exp.Key())
	}
}

// samePlanShape reports whether two plans describe the same build (used
// only to allow intentional duplicates in the table above).
func samePlanShape(a, b Plan) bool { return a.Key() == b.Key() }

// TestPlanKeyDistinguishesOverrides: moving an override between the file
// and the symbol level, or renaming its target, always changes the key.
func TestPlanKeyDistinguishesOverrides(t *testing.T) {
	p := testProgram()
	keys := map[string]string{}
	for name, plan := range map[string]Plan{
		"full-var":    FullBuildPlan(p, varC),
		"full-base":   FullBuildPlan(p, baseC),
		"file-math":   FileMixPlan(p, baseC, varC, []string{"math.cpp"}),
		"file-driver": FileMixPlan(p, baseC, varC, []string{"driver.cpp"}),
		"sym-dot":     SymbolMixPlan(p, baseC, varC, []string{"Dot"}),
		"sym-scale":   SymbolMixPlan(p, baseC, varC, []string{"Scale"}),
		"fpic-math":   FPICProbePlan(p, baseC, varC, "math.cpp"),
	} {
		k := plan.Key()
		for prev, pk := range keys {
			if pk == k {
				t.Errorf("%s and %s share key %q", prev, name, k)
			}
		}
		keys[name] = k
	}
}

// TestBuilderLazy: a builder's Key never links; Build links exactly once,
// even under concurrent callers; the accounting tokens are claimed once.
func TestBuilderLazy(t *testing.T) {
	b := NewBuilder(FullBuildPlan(testProgram(), varC))
	if b.Key() == "" || b.Built() {
		t.Fatalf("Key() built the plan (built=%v)", b.Built())
	}
	if !b.MarkSkipCounted() {
		t.Error("first skip token not granted on an unbuilt builder")
	}
	if b.MarkSkipCounted() {
		t.Error("skip token granted twice")
	}
	var wg sync.WaitGroup
	exs := make([]*Executable, 8)
	for i := range exs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			exs[i], _ = b.Build()
		}(i)
	}
	wg.Wait()
	if !b.Built() {
		t.Fatal("Build did not mark the builder built")
	}
	for i := 1; i < len(exs); i++ {
		if exs[i] != exs[0] {
			t.Fatal("concurrent Build materialized more than one Executable")
		}
	}
	if exs[0].Key() != b.Key() {
		t.Errorf("built key %q != plan key %q", exs[0].Key(), b.Key())
	}
	if !b.MarkBuildCounted() || b.MarkBuildCounted() {
		t.Error("build token must be granted exactly once")
	}
	if b.MarkSkipCounted() {
		t.Error("skip token granted after the plan was built")
	}
	if b.Plan().Prog == nil {
		t.Error("Plan accessor lost the program")
	}
}

// TestBuilderMemoizesLinkError: an unbuildable plan fails identically on
// every Build call — the deterministic-toolchain contract the memoizing
// cache relies on.
func TestBuilderMemoizesLinkError(t *testing.T) {
	p := testProgram()
	b := NewBuilder(Plan{Prog: p, Baseline: baseC,
		FileComp: map[string]comp.Compilation{"nosuch.cpp": varC}})
	_, err1 := b.Build()
	_, err2 := b.Build()
	if err1 == nil || err1 != err2 {
		t.Fatalf("link error not memoized: %v vs %v", err1, err2)
	}
	if !b.Built() {
		t.Error("a failed build still counts as materialized")
	}
}

// TestAbiHazardFileMix: the deterministic file-mix hazard fires only for
// Intel/GNU cross-vendor mixes, and linking the hazardous pair crashes at
// run time, not at link time (paper §3.3).
func TestAbiHazardFileMix(t *testing.T) {
	p := testProgram()
	var hazardous, clean *Executable
	for _, c := range comp.Matrix() {
		if c.Compiler != comp.ICPC {
			continue
		}
		ex, err := Link(FileMixPlan(p, baseC, c, []string{"math.cpp"}))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Crashes() && hazardous == nil {
			hazardous = ex
		}
		if !ex.Crashes() && clean == nil {
			clean = ex
		}
	}
	if hazardous == nil || clean == nil {
		t.Skip("matrix produced no hazardous/clean icpc pair for this program")
	}
	if !hazardous.Crashes() {
		t.Error("hazardous mix reported clean")
	}
	// Same-vendor mixes never trip the file hazard, whatever the flags.
	for _, c := range comp.Matrix() {
		if c.Compiler != comp.GCC && c.Compiler != comp.Clang {
			continue
		}
		ex, err := Link(FileMixPlan(p, baseC, c, p.FileNames()))
		if err != nil {
			t.Fatal(err)
		}
		if ex.Crashes() {
			t.Fatalf("GNU-compatible mix crashed for %s", c)
		}
	}
}

// TestAbiHazardSymbolMixDedupsFiles: the symbol-mix hazard is a property
// of the (compilation, file) pair, so overriding one symbol of a file and
// overriding several must agree on whether the executable crashes.
func TestAbiHazardSymbolMixDedupsFiles(t *testing.T) {
	p := testProgram()
	for _, c := range comp.Matrix() {
		if c.Compiler != comp.GCC {
			continue
		}
		one, err := Link(SymbolMixPlan(p, baseC, c, []string{"Dot"}))
		if err != nil {
			t.Fatal(err)
		}
		two, err := Link(SymbolMixPlan(p, baseC, c, []string{"Dot", "Scale"}))
		if err != nil {
			t.Fatal(err)
		}
		if one.Crashes() != two.Crashes() {
			t.Fatalf("%s: one-symbol crash=%v, two-symbol crash=%v (same file)",
				c, one.Crashes(), two.Crashes())
		}
	}
}

// TestCostMultiRoot: Cost over several roots charges the union of their
// call-graph closures — disjoint closures sum exactly, overlapping ones
// never double-charge, and no roots cost nothing.
func TestCostMultiRoot(t *testing.T) {
	p := testProgram()
	ex, err := FullBuild(p, varC)
	if err != nil {
		t.Fatal(err)
	}
	dot, scale := ex.Cost("Dot"), ex.Cost("Scale")
	both := ex.Cost("Dot", "Scale")
	if both != dot+scale {
		t.Errorf("disjoint closures: Cost(Dot,Scale)=%g, want %g+%g", both, dot, scale)
	}
	// Main's closure already contains Dot and Scale: adding them as extra
	// roots must not double-charge a single symbol.
	main := ex.Cost("Main")
	if got := ex.Cost("Main", "Dot", "Scale"); got != main {
		t.Errorf("overlapping closures double-charged: %g != %g", got, main)
	}
	if main <= both {
		t.Errorf("Main closure (%g) should cost more than its sub-closures (%g)", main, both)
	}
	if got := ex.Cost(); got != 0 {
		t.Errorf("Cost() with no roots = %g, want 0", got)
	}
	if got := ex.Cost("nosuch"); got != 0 {
		t.Errorf("Cost of unknown root = %g, want 0", got)
	}
}

// TestPlanKeyHostileNames: names containing the key format's structural
// characters stay injective through the escaping.
func TestPlanKeyHostileNames(t *testing.T) {
	mk := func(progName, file, sym string) Plan {
		p := prog.New(progName)
		p.AddFile(file, &prog.Symbol{Name: sym, Exported: true, Work: 1})
		return FullBuildPlan(p, baseC)
	}
	a := mk("p|base=x", "f.cpp", "S")
	b := mk("p", "base=x|f.cpp", "S")
	if a.Key() == b.Key() {
		t.Fatalf("hostile program/file names collided on %q", a.Key())
	}
	c := mk("p", "f=1.cpp", "S")
	d := mk("p", "f%3D1.cpp", "S")
	if c.Key() == d.Key() {
		t.Fatalf("escape-of-escape collided on %q", c.Key())
	}
	if fmt.Sprintf("%q", a.Key()) == "" {
		t.Fatal("unreachable")
	}
}
