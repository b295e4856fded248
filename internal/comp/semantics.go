package comp

import (
	"sync"

	"repro/internal/fp"
	"repro/internal/prog"
)

// effects is the compilation-level transformation potential: what the
// compiler is *allowed* to do to any function under this triple. Whether a
// particular function is actually transformed additionally depends on its
// body (prog.Features) and on the deterministic code-generation gates below.
type effects struct {
	fma     bool
	width   uint8 // reduction reassociation width the vectorizer may use
	unsafe  bool
	extprec bool
	ftz     bool
	approx  bool // approximate transcendental/sqrt code inlined at compile time
}

// compileEffects derives the transformation potential from the triple,
// per compiler personality.
func compileEffects(c Compilation) effects {
	switch c.Compiler {
	case GCC:
		return gccEffects(c)
	case Clang:
		return clangEffects(c)
	case ICPC:
		return icpcEffects(c)
	case XLC:
		return xlcEffects(c)
	default:
		return effects{width: 1}
	}
}

// gccEffects: gcc is value-safe by default at every -O level; only explicit
// flags change results. -mfma enables contraction at -O2 and above;
// unsafe-math flags enable reassociation (vectorized reductions need -O2+)
// and reciprocal math; -mfpmath=387 brings x87 80-bit temporaries.
func gccEffects(c Compilation) effects {
	e := effects{width: 1}
	o := optNum(c.OptLevel)
	fastMath := c.has("-ffast-math")
	unsafeMath := c.has("-funsafe-math-optimizations") || fastMath ||
		c.has("-fassociative-math") || c.has("-freciprocal-math")
	if c.has("-mfma") && o >= 2 {
		e.fma = true
	}
	if unsafeMath {
		e.unsafe = true
		if o >= 2 && !c.has("-freciprocal-math") {
			// Reassociation licenses vectorized reductions.
			if c.has("-mavx2") {
				e.width = 4
			} else {
				e.width = 2
			}
		}
	}
	if fastMath {
		e.ftz = true
	}
	if c.has("-mfpmath=387") {
		e.extprec = true
	}
	return e
}

// clangEffects: clang 6 keeps -ffp-contract=off for C++, so -mfma alone
// changes nothing — which is why clang is the most invariant compiler in the
// study. Only the unsafe-math family changes values.
func clangEffects(c Compilation) effects {
	e := effects{width: 1}
	o := optNum(c.OptLevel)
	fastMath := c.has("-ffast-math")
	unsafeMath := c.has("-funsafe-math-optimizations") || fastMath ||
		c.has("-fassociative-math") || c.has("-freciprocal-math")
	if c.has("-ffp-contract=on") && o >= 1 {
		e.fma = true // contraction within expressions when requested
	}
	if unsafeMath {
		e.unsafe = true
		if o >= 2 {
			if c.has("-mavx2") {
				e.width = 4
			} else {
				e.width = 2
			}
		}
		if c.has("-mfma") && o >= 2 {
			e.fma = true
		}
	}
	if fastMath {
		e.ftz = true
	}
	return e
}

// icpcEffects: the Intel compiler defaults to -fp-model fast=1, which
// licenses contraction, reassociation, and unsafe simplifications at any
// optimization level above -O0 — the root of its 49.8% variability rate.
// "precise"/"strict"/"source" restore value safety; fast=2 adds
// flush-to-zero and low-precision transcendentals; -fp-model double and
// extended widen intermediates.
func icpcEffects(c Compilation) effects {
	e := effects{width: 1}
	o := optNum(c.OptLevel)
	if o == 0 {
		return e
	}
	model := "fast1"
	switch {
	case c.hasSub("-fp-model precise"), c.hasSub("-fp-model strict"),
		c.hasSub("-fp-model source"):
		model = "precise"
	case c.hasSub("-fp-model fast=2"):
		model = "fast2"
	case c.hasSub("-fp-model double"), c.hasSub("-fp-model extended"):
		model = "widened"
	}
	switch model {
	case "precise":
		// Value-safe core arithmetic.
	case "widened":
		e.extprec = true
	case "fast2":
		e.unsafe = true
		e.fma = true
		e.ftz = true
		e.approx = true
		if o >= 2 {
			e.width = 8
		}
	default: // fast1
		e.unsafe = true
		e.fma = true
		if o >= 2 {
			e.width = 4
		}
	}
	if c.has("-xCORE-AVX512") && e.width > 1 {
		e.width = 8
	}
	if c.has("-no-fma") {
		e.fma = false
	}
	if c.has("-fma") && model != "precise" {
		e.fma = true
	}
	if c.has("-ftz") {
		e.ftz = true
	}
	if c.has("-no-ftz") {
		e.ftz = false
	}
	if c.has("-fimf-precision=low") || c.has("-fast-transcendentals") {
		e.approx = true
	}
	if c.has("-fimf-precision=high") || c.has("-no-fast-transcendentals") {
		e.approx = false
	}
	return e
}

// xlcEffects: the IBM compiler personality of the Laghos study. -O2 is
// value-safe (the compilation the Laghos developers trusted); -O3 turns on
// reassociation, contraction, and vectorization unless
// -qstrict=vectorprecision restores the -O2 vector rounding behavior.
func xlcEffects(c Compilation) effects {
	e := effects{width: 1}
	o := optNum(c.OptLevel)
	if o >= 3 {
		e.fma = true
		if !c.has("-qstrict=vectorprecision") {
			e.unsafe = true
			e.width = 4
		}
	}
	return e
}

// Code-generation gates: how often a licensed transformation is actually
// applied to an eligible function. Real optimizers leave most functions
// numerically untouched even under value-changing flags — whether a given
// loop contracts or reassociates depends mostly on the function's own shape
// and only slightly on the exact flag combination. The gate is therefore
// keyed primarily by the symbol (a fixed per-function "transformability"
// draw), shifted by a small per-compilation wobble, boosted at -O3, and
// near-certain for Hot kernels. The base rates are the personality knobs
// that reproduce the paper's per-compiler variability ordering
// (icpc 49.8% ≫ gcc 6.0% > clang 1.8%).
type genGates struct {
	basePct  int // per-function chance a licensed transform is applied
	fpicKill int // chance -fPIC disables a file's value-changing opts
}

func gatesFor(compiler string) genGates {
	switch compiler {
	case GCC:
		return genGates{basePct: 3, fpicKill: 35}
	case Clang:
		return genGates{basePct: 1, fpicKill: 20}
	case ICPC:
		return genGates{basePct: 5, fpicKill: 15}
	case XLC:
		return genGates{basePct: 80, fpicKill: 15}
	default:
		return genGates{basePct: 5, fpicKill: 25}
	}
}

// applyGate decides whether one transformation kind fires for one symbol
// under one compilation.
func applyGate(g genGates, hot bool, key, sym, tag string, opt int) bool {
	base := g.basePct
	if hot {
		// Hot, simple loop nests transform under any compiler that is
		// licensed to do so.
		base = 92
	}
	// Per-mille threshold: symbol-keyed draw, compilation wobble of ±30‰,
	// and a 50% boost at -O3 (higher levels transform more loops).
	thr := base*10 + int(hash64(key, sym, tag)%61) - 30
	if opt >= 3 {
		thr += thr / 2
	}
	return int(hash64(sym, tag)%1000) < thr
}

// compileLevel is the part of a compilation's semantics that does not
// depend on the symbol: the transformation potential, the code-generation
// gates, the gate hash key, the numeric -O level and -fPIC. It reads
// neither the injection plan nor any symbol, so one value serves every
// symbol of every injected variant of the compilation.
type compileLevel struct {
	e    effects
	g    genGates
	key  string
	opt  int
	fpic bool
}

// newCompileLevel derives the compilation-level part from scratch.
func newCompileLevel(c Compilation) *compileLevel {
	return &compileLevel{
		e:    compileEffects(c),
		g:    gatesFor(c.Compiler),
		key:  c.Compiler + "|" + c.OptLevel + "|" + c.Switches,
		opt:  optNum(c.OptLevel),
		fpic: c.FPIC,
	}
}

// compileLevels memoizes compileLevel per distinct (Compiler, OptLevel,
// Switches, FPIC), the way keyInterns memoizes Key: a process evaluates a
// few hundred distinct compilations but enters their functions and prices
// their executables hundreds of thousands of times, and deriving the
// effects re-splits the switch string on every call.
var compileLevels sync.Map // Compilation with nil Inject -> *compileLevel

// levelOf returns the memoized compilation-level part of c.
func levelOf(c Compilation) *compileLevel {
	c.Inject = nil
	if v, ok := compileLevels.Load(c); ok {
		return v.(*compileLevel)
	}
	v, _ := compileLevels.LoadOrStore(c, newCompileLevel(c))
	return v.(*compileLevel)
}

// Semantics maps one symbol of a program to the floating-point semantics the
// compilation's generated code evaluates under. Deterministic: equal inputs
// always produce equal semantics.
func Semantics(c Compilation, sym *prog.Symbol) fp.Semantics {
	return symbolSemantics(levelOf(c), sym)
}

// symbolSemantics is the per-symbol part of Semantics: which of the
// transformations the compilation licenses fire in this function's body.
func symbolSemantics(l *compileLevel, sym *prog.Symbol) fp.Semantics {
	e, g, key, opt := l.e, l.g, l.key, l.opt
	hot := sym.Features.Hot
	s := fp.Strict

	// -fPIC defeats cross-procedural optimization for some files: when the
	// kill gate fires, every value-changing transform in this file is lost
	// (the paper's "variability removed by -fPIC" case in §2.3).
	fpicKilled := l.fpic && gate(g.fpicKill, key, sym.File, "fpic-kill")

	if !fpicKilled {
		if e.fma && (sym.Features.MulAdd || sym.Features.Reduction) &&
			applyGate(g, hot, key, sym.Name, "fma", opt) {
			s.FuseFMA = true
		}
		if e.width > 1 && sym.Features.Reduction &&
			applyGate(g, hot, key, sym.Name, "vec", opt) {
			s.ReassocWidth = e.width
		}
		if e.unsafe && (sym.Features.ShortExpr || sym.Features.Division) &&
			applyGate(g, hot, key, sym.Name, "unsafe", opt) {
			s.UnsafeMath = true
		}
		if e.approx && sym.Features.SqrtLibm {
			s.ApproxMath = true
		}
	}
	// Widened intermediates and flush-to-zero are mode bits of the emitted
	// code, not per-loop decisions; they apply whenever the body computes.
	if e.extprec && (sym.Features.MulAdd || sym.Features.Reduction || sym.Features.ShortExpr) {
		s.ExtendedPrecision = true
	}
	if e.ftz {
		s.FlushSubnormals = true
	}
	return s
}

// LinkApproxMath reports whether linking with the given driver substitutes
// approximate vector-math libraries for libm calls, independent of how the
// object files were compiled. This reproduces the paper's finding that
// "variability was introduced by the Intel link step, regardless of
// optimization level or switches" (Figure 5 caption).
func LinkApproxMath(driver string) bool {
	return driver == ICPC
}

// ApplyLinkStep folds link-driver effects into a symbol's compile-time
// semantics.
func ApplyLinkStep(driver string, sym *prog.Symbol, s fp.Semantics) fp.Semantics {
	if LinkApproxMath(driver) && sym.Features.SqrtLibm {
		s.ApproxMath = true
	}
	return s
}
