package comp

import (
	"testing"

	"repro/internal/prog"
)

// Unit tests for the cost-model, hazard, and semantics helpers — the
// personality knobs every table and figure of the reproduction stands on.

// TestOptBasePersonalities: each compiler's optimization ladder descends
// monotonically (higher -O is never slower in the base factor), the
// unknown-compiler fallback is the neutral 1.0, and the xlc -O2 → -O3 step
// reproduces the motivating example's dramatic ratio.
func TestOptBasePersonalities(t *testing.T) {
	for _, compiler := range []string{GCC, Clang, ICPC, XLC} {
		prev := optBase(compiler, "-O0")
		for _, lvl := range []string{"-O1", "-O2", "-O3"} {
			cur := optBase(compiler, lvl)
			if cur >= prev {
				t.Errorf("%s %s base factor %g not below previous level's %g", compiler, lvl, cur, prev)
			}
			prev = cur
		}
	}
	for _, lvl := range OptLevels {
		if got := optBase("tcc", lvl); got != 1.0 {
			t.Errorf("unknown compiler at %s: base %g, want 1.0", lvl, got)
		}
	}
	if ratio := optBase(XLC, "-O2") / optBase(XLC, "-O3"); ratio < 1.5 {
		t.Errorf("xlc O2/O3 base ratio %g too small for the motivating example", ratio)
	}
}

// TestSpeedFactorTransformDiscounts: each value-changing transformation
// that actually applies to a function buys a measurable discount over the
// same function without it, and widened intermediates cost time.
func TestSpeedFactorTransformDiscounts(t *testing.T) {
	hot := sym("HotRed", prog.Features{Reduction: true, MulAdd: true, Hot: true})
	// icpc fast=2 + AVX-512 licenses width-8 reassociation on hot
	// reductions; precise applies nothing.
	wide := Compilation{Compiler: ICPC, OptLevel: "-O2", Switches: "-fp-model fast=2 -xCORE-AVX512"}
	precise := Compilation{Compiler: ICPC, OptLevel: "-O2", Switches: "-fp-model precise"}
	if Semantics(wide, hot).ReassocWidth != 8 {
		t.Fatalf("fast=2 + AVX-512 did not widen to 8: %+v", Semantics(wide, hot))
	}
	fWide, fPrec := SpeedFactor(wide, hot), SpeedFactor(precise, hot)
	if fWide >= fPrec {
		t.Errorf("width-8 reduction (%g) not faster than precise (%g)", fWide, fPrec)
	}
	// x87 extended precision is a slowdown, not a speedup.
	x87 := Compilation{Compiler: GCC, OptLevel: "-O2", Switches: "-mfpmath=387"}
	plain := Compilation{Compiler: GCC, OptLevel: "-O2"}
	s := sym("Widened", prog.Features{MulAdd: true})
	if !Semantics(x87, s).ExtendedPrecision {
		t.Fatal("-mfpmath=387 did not widen")
	}
	if SpeedFactor(x87, s) <= SpeedFactor(plain, s) {
		t.Errorf("x87 (%g) not slower than plain (%g)", SpeedFactor(x87, s), SpeedFactor(plain, s))
	}
}

// TestFileMixHazardDirections: the Intel/GNU segfault hazard is about the
// vendor pair, not which side is "variable" — icpc objects under a g++
// baseline and g++ objects under an icpc baseline can both crash, while
// gnu-compatible pairs (g++/clang++) and the IBM/GNU pair of the Laghos
// study never do.
func TestFileMixHazardDirections(t *testing.T) {
	files := func() []string {
		var fs []string
		for i := 0; i < 40; i++ {
			fs = append(fs, "f"+string(rune('a'+i%26))+string(rune('0'+i/26))+".cpp")
		}
		return fs
	}()
	count := func(variable, baseline Compilation) int {
		hits := 0
		for _, f := range files {
			if FileMixHazard(variable, baseline, f) {
				hits++
			}
		}
		return hits
	}
	icpc := Compilation{Compiler: ICPC, OptLevel: "-O2"}
	gccO3 := Compilation{Compiler: GCC, OptLevel: "-O3"}
	clang := Compilation{Compiler: Clang, OptLevel: "-O3"}
	xlc := Compilation{Compiler: XLC, OptLevel: "-O3"}
	hits := 0
	for _, c := range Matrix() {
		if c.Compiler == ICPC {
			hits += count(c, Baseline())
		}
	}
	if hits == 0 {
		t.Error("icpc-variable/gcc-baseline mixes never hazardous")
	}
	reverse := 0
	for _, c := range Matrix() {
		if c.Compiler == GCC || c.Compiler == Clang {
			reverse += count(c, icpc)
		}
	}
	if reverse == 0 {
		t.Error("gnu-variable/icpc-baseline mixes never hazardous")
	}
	if got := count(clang, gccO3); got != 0 {
		t.Errorf("clang/gcc mixes flagged %d times; gnu-compatible vendors cannot clash", got)
	}
	if got := count(xlc, Baseline()) + count(gccO3, xlc); got != 0 {
		t.Errorf("xlc/gcc mixes flagged %d times; the Laghos searches all linked", got)
	}
	// Same compilation on both sides is no mix at all.
	if count(gccO3, gccO3) != 0 {
		t.Error("self-mix flagged as hazard")
	}
}

// TestCrossVendorMapping pins the vendor equivalence classes, including
// the unknown-compiler fallback (distinct unknowns are distinct vendors).
func TestCrossVendorMapping(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{GCC, GCC, false},
		{GCC, Clang, false}, // both gnu-compatible runtimes
		{Clang, GCC, false},
		{GCC, ICPC, true},
		{ICPC, Clang, true},
		{GCC, XLC, true},
		{ICPC, XLC, true},
		{"tcc", "tcc", false},
		{"tcc", "pcc", true},
		{"tcc", GCC, true},
	}
	for _, c := range cases {
		if got := crossVendor(c.a, c.b); got != c.want {
			t.Errorf("crossVendor(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestSymbolMixHazardUnknownCompiler: the default personality gets the
// moderate fallback rate rather than 0 or certainty.
func TestSymbolMixHazardUnknownCompiler(t *testing.T) {
	hits := 0
	const n = 200
	for i := 0; i < n; i++ {
		c := Compilation{Compiler: "tcc", OptLevel: "-O2", Switches: string(rune('a' + i%26))}
		if SymbolMixHazard(c, "file"+string(rune('0'+i/26))+".cpp") {
			hits++
		}
	}
	if pct := hits * 100 / n; pct < 3 || pct > 20 {
		t.Errorf("unknown-compiler symbol hazard rate %d%%, want ~10%%", pct)
	}
}

// TestClangEffectsFamilies: the clang personality's switch families —
// contraction only via -ffp-contract=on (or -mfma under unsafe math),
// flush-to-zero only via -ffast-math, reassociation width gated on -O2 and
// the AVX2 flag.
func TestClangEffectsFamilies(t *testing.T) {
	hot := sym("Hot", prog.Features{MulAdd: true, Reduction: true, Hot: true})
	contract := Compilation{Compiler: Clang, OptLevel: "-O2", Switches: "-ffp-contract=on"}
	if !Semantics(contract, hot).FuseFMA {
		t.Error("-ffp-contract=on did not contract a hot mul-add kernel")
	}
	if Semantics(Compilation{Compiler: Clang, OptLevel: "-O0", Switches: "-ffp-contract=on"}, hot).FuseFMA {
		t.Error("-ffp-contract=on contracted at -O0")
	}
	unsafeFMA := Compilation{Compiler: Clang, OptLevel: "-O3",
		Switches: "-funsafe-math-optimizations -mavx2 -mfma"}
	g := Semantics(unsafeFMA, hot)
	if !g.FuseFMA || g.ReassocWidth != 4 {
		t.Errorf("unsafe+avx2+fma: %+v, want fused width-4", g)
	}
	narrow := Compilation{Compiler: Clang, OptLevel: "-O3", Switches: "-funsafe-math-optimizations"}
	if w := Semantics(narrow, hot).ReassocWidth; w != 2 {
		t.Errorf("unsafe without avx2: width %d, want 2", w)
	}
	seq := Compilation{Compiler: Clang, OptLevel: "-O1", Switches: "-funsafe-math-optimizations"}
	if w := Semantics(seq, hot).ReassocWidth; w != 1 {
		t.Errorf("unsafe at -O1 vectorized: width %d", w)
	}
	fast := Compilation{Compiler: Clang, OptLevel: "-O2", Switches: "-ffast-math"}
	if !Semantics(fast, hot).FlushSubnormals {
		t.Error("-ffast-math did not flush subnormals")
	}
	if Semantics(narrow, hot).FlushSubnormals {
		t.Error("unsafe math alone flushed subnormals")
	}
}

// TestIcpcSwitchOverrides: the icpc personality's late overrides — FTZ
// on/off switches, transcendental precision switches, AVX-512 widening —
// act on top of the fp-model.
func TestIcpcSwitchOverrides(t *testing.T) {
	hot := sym("Hot", prog.Features{Reduction: true, SqrtLibm: true, Hot: true})
	base := Compilation{Compiler: ICPC, OptLevel: "-O2"}
	if Semantics(base, hot).FlushSubnormals {
		t.Error("fast=1 flushed subnormals by default")
	}
	if !Semantics(base.withSwitches("-ftz"), hot).FlushSubnormals {
		t.Error("-ftz ignored")
	}
	fast2 := base.withSwitches("-fp-model fast=2")
	if Semantics(fast2.withSwitches("-fp-model fast=2 -no-ftz"), hot).FlushSubnormals {
		t.Error("-no-ftz did not override fast=2")
	}
	if !Semantics(base.withSwitches("-fimf-precision=low"), hot).ApproxMath {
		t.Error("-fimf-precision=low did not approximate")
	}
	if Semantics(fast2.withSwitches("-fp-model fast=2 -fimf-precision=high"), hot).ApproxMath {
		t.Error("-fimf-precision=high did not restore precise transcendentals")
	}
	// The vec gate is per-function; over several hot kernels AVX-512 must
	// widen some reduction to 8 and never to anything between 4 and 8.
	wide := 0
	for _, n := range []string{"A", "B", "C", "D", "E", "F"} {
		k := sym(n, prog.Features{Reduction: true, Hot: true})
		switch w := Semantics(base.withSwitches("-xCORE-AVX512"), k).ReassocWidth; w {
		case 8:
			wide++
		case 1:
		default:
			t.Errorf("kernel %s: AVX-512 width %d, want 1 or 8", n, w)
		}
	}
	if wide == 0 {
		t.Error("-xCORE-AVX512 never widened a hot reduction to 8")
	}
	if got := Semantics(base.withSwitches("-fp-model extended"), hot); !got.ExtendedPrecision {
		t.Errorf("-fp-model extended did not widen: %+v", got)
	}
}

// withSwitches returns a copy with the switch string replaced (test aid).
func (c Compilation) withSwitches(s string) Compilation {
	c.Switches = s
	return c
}

// TestGatesForUnknownCompiler: the fallback personality transforms at a
// low-but-nonzero base rate, so unknown compilers stay plausible rather
// than degenerate.
func TestGatesForUnknownCompiler(t *testing.T) {
	g := gatesFor("tcc")
	if g.basePct <= 0 || g.basePct > 50 || g.fpicKill <= 0 {
		t.Errorf("fallback gates degenerate: %+v", g)
	}
}

// TestCompilationKeyFPICAndEscape: -fPIC flips the key, and structural
// characters in any field stay injective through KeyEscape.
func TestCompilationKeyFPICAndEscape(t *testing.T) {
	c := Compilation{Compiler: GCC, OptLevel: "-O2"}
	if c.Key() == c.WithFPIC().Key() {
		t.Error("fPIC not part of the key")
	}
	tricky := Compilation{Compiler: "g|cc", OptLevel: "-O2", Switches: "a=b"}
	plain := Compilation{Compiler: "g", OptLevel: "cc|-O2", Switches: "a=b"}
	if tricky.Key() == plain.Key() {
		t.Errorf("structural characters collided: %q", tricky.Key())
	}
	if KeyEscape("a|b") == KeyEscape("a%7Cb") {
		t.Error("escape characters themselves not escaped")
	}
	if KeyEscape("clean") != "clean" {
		t.Error("clean strings should pass through untouched")
	}
}
