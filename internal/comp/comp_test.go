package comp

import (
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/fp"
	"repro/internal/prog"
)

func sym(name string, f prog.Features) *prog.Symbol {
	return &prog.Symbol{Name: name, File: "kernel.cpp", Exported: true, Work: 1, FPOps: 5, Features: f}
}

var (
	allFeat = prog.Features{MulAdd: true, Reduction: true, Division: true,
		SqrtLibm: true, ShortExpr: true}
	redSym  = sym("Reduce", prog.Features{Reduction: true, MulAdd: true})
	libmSym = sym("UseSqrt", prog.Features{SqrtLibm: true})
	noFeat  = sym("Plain", prog.Features{})
)

func TestCompilationString(t *testing.T) {
	c := Compilation{Compiler: GCC, OptLevel: "-O2", Switches: "-mavx2 -mfma"}
	if c.String() != "g++ -O2 -mavx2 -mfma" {
		t.Fatalf("String() = %q", c.String())
	}
	if c.WithFPIC().String() != "g++ -O2 -mavx2 -mfma -fPIC" {
		t.Fatalf("fPIC String() = %q", c.WithFPIC().String())
	}
	plain := Compilation{Compiler: Clang, OptLevel: "-O0"}
	if plain.String() != "clang++ -O0" {
		t.Fatalf("plain String() = %q", plain.String())
	}
}

func TestCompilationKeyIncludesInjection(t *testing.T) {
	c := Compilation{Compiler: GCC, OptLevel: "-O1"}
	ci := c.WithInjection("f", fp.Injection{OpIndex: 2, Op: fp.InjMul, Eps: 0.25})
	if c.Key() == ci.Key() {
		t.Fatal("injected compilation key equals clean key")
	}
	if !strings.Contains(ci.Key(), "inject=f") {
		t.Fatalf("injection key missing symbol: %q", ci.Key())
	}
	if ci.Inject == nil || c.Inject != nil {
		t.Fatal("WithInjection mutated receiver or returned no plan")
	}
}

func TestMatrixSize(t *testing.T) {
	m := Matrix()
	if len(m) != 244 {
		t.Fatalf("Matrix has %d compilations, want 244 (paper §3.1)", len(m))
	}
	counts := map[string]int{}
	for _, c := range m {
		counts[c.Compiler]++
	}
	if counts[GCC] != 68 || counts[Clang] != 72 || counts[ICPC] != 104 {
		t.Fatalf("per-compiler counts: %v (want g++ 68, clang++ 72, icpc 104)", counts)
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, c := range m {
		if seen[c.Key()] {
			t.Fatalf("duplicate compilation %s", c.Key())
		}
		seen[c.Key()] = true
	}
}

func TestBaselineIsStrictEverywhere(t *testing.T) {
	for _, s := range []*prog.Symbol{redSym, libmSym, noFeat, sym("All", allFeat)} {
		got := Semantics(Baseline(), s)
		if !got.IsStrict() {
			t.Fatalf("baseline semantics for %s = %v, want strict", s.Name, got)
		}
	}
}

func TestGccPlainO2O3Strict(t *testing.T) {
	for _, lvl := range []string{"-O1", "-O2", "-O3"} {
		c := Compilation{Compiler: GCC, OptLevel: lvl}
		if got := Semantics(c, sym("All", allFeat)); !got.IsStrict() {
			t.Fatalf("g++ %s plain should be value-safe, got %v", lvl, got)
		}
	}
}

func TestGccFMAFlag(t *testing.T) {
	c := Compilation{Compiler: GCC, OptLevel: "-O2", Switches: "-mavx2 -mfma"}
	// Hot mul-add kernels reliably contract when licensed; cold code is
	// transformed only at the low per-function base rate.
	found := 0
	for _, n := range []string{"A", "B", "C", "D", "E", "F"} {
		s := sym(n, prog.Features{MulAdd: true, Hot: true})
		if Semantics(c, s).FuseFMA {
			found++
		}
	}
	if found < 4 {
		t.Fatalf("gcc -mavx2 -mfma contracted only %d/6 hot mul-add kernels", found)
	}
	coldHits := 0
	for i := 0; i < 100; i++ {
		s := sym("cold"+string(rune('A'+i%26))+string(rune('0'+i/26)), prog.Features{MulAdd: true})
		if Semantics(c, s).FuseFMA {
			coldHits++
		}
	}
	if coldHits == 0 || coldHits > 20 {
		t.Fatalf("cold contraction rate %d/100; want the low base rate", coldHits)
	}
	// At -O0/-O1 contraction must not happen even for hot kernels.
	for _, lvl := range []string{"-O0", "-O1"} {
		c := Compilation{Compiler: GCC, OptLevel: lvl, Switches: "-mavx2 -mfma"}
		for _, n := range []string{"A", "B", "C", "D"} {
			if Semantics(c, sym(n, prog.Features{MulAdd: true, Hot: true})).FuseFMA {
				t.Fatalf("gcc %s -mfma contracted", lvl)
			}
		}
	}
}

func TestGccUnsafeEnablesVectorReductions(t *testing.T) {
	c := Compilation{Compiler: GCC, OptLevel: "-O3",
		Switches: "-funsafe-math-optimizations -mavx2 -mfma"}
	foundWide := false
	for _, n := range []string{"A", "B", "C", "D", "E", "F", "G", "H"} {
		s := sym(n, prog.Features{Reduction: true, Hot: true})
		if w := Semantics(c, s).ReassocWidth; w == 4 {
			foundWide = true
		}
	}
	if !foundWide {
		t.Fatal("gcc unsafe+avx2 never produced width-4 reductions in hot kernels")
	}
}

func TestGcc387ExtendedPrecision(t *testing.T) {
	c := Compilation{Compiler: GCC, OptLevel: "-O2", Switches: "-mfpmath=387"}
	if !Semantics(c, redSym).ExtendedPrecision {
		t.Fatal("-mfpmath=387 did not widen intermediates")
	}
	if Semantics(c, noFeat).ExtendedPrecision {
		t.Fatal("featureless symbol widened")
	}
}

func TestClangIgnoresBareMFMA(t *testing.T) {
	c := Compilation{Compiler: Clang, OptLevel: "-O3", Switches: "-mavx2 -mfma"}
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		s := sym(n, prog.Features{MulAdd: true, Reduction: true})
		if got := Semantics(c, s); !got.IsStrict() {
			t.Fatalf("clang -mfma alone changed semantics: %v", got)
		}
	}
}

func TestIcpcDefaultIsUnsafe(t *testing.T) {
	c := Compilation{Compiler: ICPC, OptLevel: "-O2"}
	variable := false
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		f := allFeat
		f.Hot = true
		s := sym(n, f)
		if !Semantics(c, s).IsStrict() {
			variable = true
		}
	}
	if !variable {
		t.Fatal("icpc -O2 default (fp-model fast=1) produced strict code everywhere")
	}
	// -O0 disables compile-time transforms.
	c0 := Compilation{Compiler: ICPC, OptLevel: "-O0"}
	if got := Semantics(c0, sym("A", allFeat)); !got.IsStrict() {
		t.Fatalf("icpc -O0 compile semantics not strict: %v", got)
	}
}

func TestIcpcPreciseModel(t *testing.T) {
	c := Compilation{Compiler: ICPC, OptLevel: "-O3", Switches: "-fp-model precise"}
	for _, n := range []string{"A", "B", "C"} {
		s := sym(n, allFeat)
		got := Semantics(c, s)
		if got.FuseFMA || got.UnsafeMath || got.ReassocWidth > 1 {
			t.Fatalf("icpc -fp-model precise still value-changing: %v", got)
		}
	}
}

func TestIcpcFast2AddsFTZAndApprox(t *testing.T) {
	c := Compilation{Compiler: ICPC, OptLevel: "-O3", Switches: "-fp-model fast=2"}
	s := sym("A", allFeat)
	got := Semantics(c, s)
	if !got.FlushSubnormals {
		t.Fatalf("fast=2 without FTZ: %v", got)
	}
	if !got.ApproxMath {
		t.Fatalf("fast=2 without approximate libm: %v", got)
	}
}

func TestIcpcNoFMASwitch(t *testing.T) {
	with := Compilation{Compiler: ICPC, OptLevel: "-O2"}
	without := Compilation{Compiler: ICPC, OptLevel: "-O2", Switches: "-no-fma"}
	anyFMA := false
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		s := sym(n, prog.Features{MulAdd: true, Hot: true})
		if Semantics(with, s).FuseFMA {
			anyFMA = true
		}
		if Semantics(without, s).FuseFMA {
			t.Fatal("-no-fma still contracted")
		}
	}
	if !anyFMA {
		t.Fatal("icpc default never contracted")
	}
}

func TestXlcO3StrictQualifier(t *testing.T) {
	o3 := Compilation{Compiler: XLC, OptLevel: "-O3"}
	strictq := Compilation{Compiler: XLC, OptLevel: "-O3", Switches: "-qstrict=vectorprecision"}
	o2 := Compilation{Compiler: XLC, OptLevel: "-O2"}
	s := sym("Energy", allFeat)
	if Semantics(o2, s).UnsafeMath || Semantics(o2, s).ReassocWidth > 1 {
		t.Fatal("xlc -O2 should be value-safe")
	}
	g3 := Semantics(o3, s)
	if !g3.UnsafeMath && g3.ReassocWidth == 1 && !g3.FuseFMA {
		t.Fatalf("xlc -O3 applied nothing: %v", g3)
	}
	gs := Semantics(strictq, s)
	if gs.ReassocWidth > 1 || gs.UnsafeMath {
		t.Fatalf("-qstrict=vectorprecision kept vector reassociation: %v", gs)
	}
}

func TestSemanticsDeterministic(t *testing.T) {
	for _, c := range Matrix()[:40] {
		s := sym("K", allFeat)
		if Semantics(c, s) != Semantics(c, s) {
			t.Fatalf("non-deterministic semantics for %s", c)
		}
	}
}

func TestLinkStepApproxMath(t *testing.T) {
	if !LinkApproxMath(ICPC) {
		t.Fatal("icpc link must substitute SVML")
	}
	if LinkApproxMath(GCC) || LinkApproxMath(Clang) || LinkApproxMath(XLC) {
		t.Fatal("non-Intel drivers must not substitute SVML")
	}
	s := ApplyLinkStep(ICPC, libmSym, fp.Strict)
	if !s.ApproxMath {
		t.Fatal("link step did not set ApproxMath on libm user")
	}
	s2 := ApplyLinkStep(ICPC, noFeat, fp.Strict)
	if s2.ApproxMath {
		t.Fatal("link step set ApproxMath on non-libm symbol")
	}
	s3 := ApplyLinkStep(GCC, libmSym, fp.Strict)
	if s3.ApproxMath {
		t.Fatal("gcc link set ApproxMath")
	}
}

func TestFPICCanRemoveVariability(t *testing.T) {
	// Over many (compilation,file) pairs, the fPIC kill gate must fire for
	// some and not for others.
	c := Compilation{Compiler: GCC, OptLevel: "-O3",
		Switches: "-funsafe-math-optimizations -mavx2 -mfma"}
	killed, kept := 0, 0
	for i := 0; i < 40; i++ {
		s := &prog.Symbol{Name: "f", File: "file" + string(rune('A'+i)) + ".cpp",
			Features: prog.Features{Reduction: true, ShortExpr: true, Hot: true}}
		plain := Semantics(c, s)
		pic := Semantics(c.WithFPIC(), s)
		if plain.IsStrict() {
			continue
		}
		if pic.IsStrict() {
			killed++
		} else {
			kept++
		}
	}
	if killed == 0 || kept == 0 {
		t.Fatalf("fPIC kill gate degenerate: killed=%d kept=%d", killed, kept)
	}
}

func TestSpeedFactorShape(t *testing.T) {
	ref := PerfReference()
	s := sym("Hot", allFeat)
	fRef := SpeedFactor(ref, s)
	if fRef < 0.9 || fRef > 1.1 {
		t.Fatalf("reference speed factor %g not ~1", fRef)
	}
	o0 := SpeedFactor(Baseline(), s)
	if o0 < 1.8 {
		t.Fatalf("-O0 factor %g should be much slower than 1", o0)
	}
	o3 := SpeedFactor(Compilation{Compiler: GCC, OptLevel: "-O3"}, s)
	if o3 >= fRef {
		t.Fatalf("-O3 (%g) not faster than -O2 (%g)", o3, fRef)
	}
	// xlc O2 -> O3 must be a dramatic speedup (motivating example, 2.42x).
	x2 := SpeedFactor(Compilation{Compiler: XLC, OptLevel: "-O2"}, s)
	x3 := SpeedFactor(Compilation{Compiler: XLC, OptLevel: "-O3"}, s)
	if ratio := x2 / x3; ratio < 1.8 || ratio > 3.2 {
		t.Fatalf("xlc O2/O3 ratio %g outside the motivating example's shape", ratio)
	}
	// fPIC costs something.
	if SpeedFactor(ref.WithFPIC(), s) <= fRef*0.99 {
		t.Fatal("fPIC did not slow the code down")
	}
}

func TestFileMixHazardOnlyCrossVendor(t *testing.T) {
	base := Baseline()
	gcc := Compilation{Compiler: GCC, OptLevel: "-O3", Switches: "-ffast-math"}
	for i := 0; i < 50; i++ {
		f := "f" + string(rune('a'+i%26)) + ".cpp"
		if FileMixHazard(gcc, base, f) {
			t.Fatal("gcc/gcc mix flagged as ABI hazard")
		}
	}
	// icpc mixes hazard on some small fraction of files.
	hits := 0
	for _, c := range Matrix() {
		if c.Compiler != ICPC {
			continue
		}
		for i := 0; i < 15; i++ {
			if FileMixHazard(c, base, "file"+string(rune('a'+i))+".cpp") {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Fatal("icpc/gcc mixing never hazardous")
	}
}

func TestSymbolMixHazardRates(t *testing.T) {
	count := func(compiler string) int {
		hits := 0
		n := 0
		for _, c := range Matrix() {
			if c.Compiler != compiler {
				continue
			}
			for i := 0; i < 10; i++ {
				n++
				if SymbolMixHazard(c, "file"+string(rune('a'+i))+".cpp") {
					hits++
				}
			}
		}
		return hits * 100 / n
	}
	if p := count(Clang); p != 0 {
		t.Fatalf("clang symbol hazard rate %d%%, want 0", p)
	}
	if p := count(GCC); p < 20 || p > 40 {
		t.Fatalf("gcc symbol hazard rate %d%%, want ~30", p)
	}
	if p := count(ICPC); p < 14 || p > 32 {
		t.Fatalf("icpc symbol hazard rate %d%%, want ~22", p)
	}
}

func TestOptNumFallback(t *testing.T) {
	if optNum("-Og") != 2 {
		t.Fatal("unknown level should behave like -O2")
	}
	for i, lvl := range OptLevels {
		if optNum(lvl) != i {
			t.Fatalf("optNum(%s) = %d", lvl, optNum(lvl))
		}
	}
}

func TestGateBounds(t *testing.T) {
	if gate(0, "x") {
		t.Fatal("gate(0) fired")
	}
	if !gate(100, "x") {
		t.Fatal("gate(100) did not fire")
	}
	// Roughly pct% of keys fire.
	hits := 0
	for i := 0; i < 1000; i++ {
		if gate(50, "key", string(rune(i)), "t") {
			hits++
		}
	}
	if hits < 400 || hits > 600 {
		t.Fatalf("gate(50) fired %d/1000", hits)
	}
}

// fnvHash64 is the hash.Hash form hash64 replaced, kept as the reference
// it must match: each part written as bytes, then a NUL byte.
func fnvHash64(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestHash64MatchesFNV: hash64 and the hazards' triple hash return the
// values of the reference, so every gate, jitter and hazard stays where it
// was, and hashing allocates nothing.
func TestHash64MatchesFNV(t *testing.T) {
	parts := [][]string{
		nil, {""}, {"x"}, {"", ""}, {"a\x00b", "\xff\xfe"}, {"g++|-O2|", "f.cpp", "abi-file"},
		{"icpc", "-O3", "-fp-model fast=2", "kernel.cpp", "jitter"}, {"é", "|=%"},
	}
	for _, ps := range parts {
		if got, want := hash64(ps...), fnvHash64(ps...); got != want {
			t.Errorf("hash64(%q) = %#x, want %#x", ps, got, want)
		}
	}
	for _, c := range append(Matrix(), Baseline(), Compilation{Compiler: "a|b", Switches: "\x00"}) {
		triple := c.Compiler + "|" + c.OptLevel + "|" + c.Switches
		if got, want := uint64(tripleHash(c).part("f.cpp").part("abi-file")),
			fnvHash64(triple, "f.cpp", "abi-file"); got != want {
			t.Errorf("%s: triple hash %#x, want %#x", c, got, want)
		}
	}
	c := Matrix()[7]
	if n := testing.AllocsPerRun(100, func() {
		FileMixHazard(c, Baseline(), "f.cpp")
		SymbolMixHazard(c, "f.cpp")
		hash64(c.Compiler, c.OptLevel, c.Switches, "f.cpp", "jitter")
	}); n != 0 {
		t.Errorf("hashing allocated %v times, want 0", n)
	}
}

func TestCompilersTable(t *testing.T) {
	cs := Compilers()
	if len(cs) != 3 {
		t.Fatalf("Compilers() returned %d entries", len(cs))
	}
	if cs[0].Version != "gcc-8.2.0" || cs[2].Version != "icpc-18.0.3" {
		t.Fatalf("compiler versions wrong: %+v", cs)
	}
}
