package link

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/prog"
)

// TestPlanKeyMatchesExecutableKey: every plan shape the drivers build —
// full builds, file mixes, symbol mixes, the -fPIC probe, injections —
// links, and distinct plans never share a key. Plan.Key is the only key an
// executable has, so the key-first cache addresses every entry (and every
// artifact record) by it.
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
		{Prog: p, Baseline: baseC},
	}
	seen := map[string]int{}
	for i, plan := range plans {
		if _, err := Link(plan); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if j, dup := seen[plan.Key()]; dup && !samePlan(plans[j], plan) {
			t.Errorf("distinct plans %d and %d share key %q", j, i, plan.Key())
		}
		seen[plan.Key()] = i
	}
}

// TestFullBuildKeyNamesNoFile: a full build is its baseline, so its key is
// the key of a file mix that moves no file, and adding a file to the
// program leaves it unchanged, while a file mix still names every file it
// moves.
func TestFullBuildKeyNamesNoFile(t *testing.T) {
	p := testProgram()
	full := FullBuildPlan(p, baseC).Key()
	if got := FileMixPlan(p, baseC, varC, nil).Key(); got != full {
		t.Errorf("empty file mix key %q != full build key %q", got, full)
	}
	grown := testProgram()
	grown.AddFile("extra=|.cpp", &prog.Symbol{Name: "Extra", Exported: true, Work: 1})
	if got := FullBuildPlan(grown, baseC).Key(); got != full {
		t.Errorf("adding a file changed the full build key: %q, was %q", got, full)
	}
	mix := FileMixPlan(grown, baseC, varC, grown.FileNames()).Key()
	for _, f := range grown.FileNames() {
		if !strings.Contains(mix, "|f:"+comp.KeyEscape(f)+"=") {
			t.Errorf("file mix key %q does not name %q", mix, f)
		}
	}
	if mix == FileMixPlan(p, baseC, varC, p.FileNames()).Key() {
		t.Errorf("file mixes of different file sets share key %q", mix)
	}
}

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
		Files: []Override{{"nosuch.cpp", varC}}})
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
		return FileMixPlan(p, baseC, varC, []string{file})
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

// TestPlanKeyBytesPinned pins one key of each constructor byte for byte:
// the cache keys of every store, artifact and warm-start manifest written
// so far, so a change of the plan representation must leave them as they
// are. The names hold the key format's structural characters and come
// unsorted and twice.
func TestPlanKeyBytesPinned(t *testing.T) {
	p := prog.New("pin|prog")
	p.AddFile("z.cpp", &prog.Symbol{Name: "T", Exported: true})
	p.AddFile("a=b.cpp", &prog.Symbol{Name: "S|1", Exported: true}, &prog.Symbol{Name: "R%", Exported: true})
	icpc := comp.Compilation{Compiler: comp.ICPC, OptLevel: "-O2", Switches: "-fp-model fast=2"}
	inj := varC.WithInjection("S|1", fp.Injection{OpIndex: 2, Op: fp.InjMul, Eps: 0.375})
	for _, tc := range []struct {
		plan Plan
		want string
	}{
		{FullBuildPlan(p, inj),
			`pin%7Cprog|base=g++|-O3|-funsafe-math-optimizations -mavx2 -mfma|inject=S%7C1|2|*|3fd8000000000000`},
		{FileMixPlan(p, baseC, icpc, []string{"z.cpp", "a=b.cpp", "z.cpp"}),
			`pin%7Cprog|base=g++|-O0||f:a%3Db.cpp=icpc|-O2|-fp-model fast%3D2|f:z.cpp=icpc|-O2|-fp-model fast%3D2`},
		{SymbolMixPlan(p, baseC, varC, []string{"S|1", "R%", "S|1"}),
			`pin%7Cprog|base=g++|-O0||s:R%25=g++|-O3|-funsafe-math-optimizations -mavx2 -mfma|fpic` +
				`|s:S%7C1=g++|-O3|-funsafe-math-optimizations -mavx2 -mfma|fpic`},
		{FPICProbePlan(p, baseC, inj, "a=b.cpp"),
			`pin%7Cprog|base=g++|-O0||f:a%3Db.cpp=g++|-O3|-funsafe-math-optimizations -mavx2 -mfma|fpic` +
				`|inject=S%7C1|2|*|3fd8000000000000`},
	} {
		if got := tc.plan.Key(); got != tc.want {
			t.Errorf("key %q\nwant %q", got, tc.want)
		}
	}
}

// benchProgram is a program shaped like a bisect target: eight files,
// registered out of name order as the apps register theirs, each with 24
// exported symbols and two internal ones.
func benchProgram() *prog.Program {
	p := prog.New("bench")
	for f := 7; f >= 0; f-- {
		file := fmt.Sprintf("file%d.cpp", f)
		var syms []*prog.Symbol
		for s := range 26 {
			syms = append(syms, &prog.Symbol{Name: fmt.Sprintf("F%d::Sym%02d", f, s),
				Exported: s < 24, Work: 1, FPOps: 2})
		}
		p.AddFile(file, syms...)
	}
	return p
}

// benchMixes returns the probes BenchmarkPlanKey and BenchmarkLinkMix
// time: a six-file mix and a 20-symbol mix, names in program order as the
// bisect search passes them.
func benchMixes(p *prog.Program) (files, syms []string) {
	files = p.FileNames()[1:7]
	for _, sym := range p.Files()[2].Symbols[:20] {
		syms = append(syms, sym.Name)
	}
	return files, syms
}

// BenchmarkPlanKey times what a warm bisect probe pays before its cache
// lookup: build the plan from the probe's names, then its key.
func BenchmarkPlanKey(b *testing.B) {
	p := benchProgram()
	files, syms := benchMixes(p)
	b.Run("file-mix-6", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_ = FileMixPlan(p, baseC, varC, files).Key()
		}
	})
	b.Run("symbol-mix-20", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_ = SymbolMixPlan(p, baseC, varC, syms).Key()
		}
	})
}

// BenchmarkLinkMix times what a cold bisect probe pays to link: the
// six-file mix and the 20-symbol mix, validated, hazard-checked and
// resolved.
func BenchmarkLinkMix(b *testing.B) {
	p := benchProgram()
	files, syms := benchMixes(p)
	for _, plan := range []Plan{FileMixPlan(p, baseC, varC, files), SymbolMixPlan(p, baseC, varC, syms)} {
		if _, err := Link(plan); err != nil { // warms the class memo
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Link(FileMixPlan(p, baseC, varC, files)); err != nil {
			b.Fatal(err)
		}
		if _, err := Link(SymbolMixPlan(p, baseC, varC, syms)); err != nil {
			b.Fatal(err)
		}
	}
}
