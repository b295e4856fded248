package comp

import (
	"repro/internal/fp"
	"repro/internal/prog"
)

// The deterministic cost model. Runtimes in the paper come from wall-clock
// measurements of the compiled executables; here a run's cost is the sum
// over the executed symbols of Work × SpeedFactor, where SpeedFactor
// captures optimization level, applied FP transformations, and a small
// deterministic per-(compilation,file) scatter standing in for code-layout
// and instruction-scheduling effects. Only the *shape* matters: relative
// ordering of compilations and rough speedup factors.

// optBase returns the baseline time factor for an optimization level,
// per compiler personality (g++ -O2 == 1.0 by construction).
func optBase(compiler, level string) float64 {
	o := optNum(level)
	switch compiler {
	case GCC:
		return [4]float64{2.35, 1.22, 1.00, 0.945}[o]
	case Clang:
		return [4]float64{2.50, 1.25, 1.02, 0.975}[o]
	case ICPC:
		return [4]float64{2.20, 1.18, 0.975, 0.950}[o]
	case XLC:
		// The Laghos motivation example: xlc++ -O3 ran 2.42x faster than
		// -O2 (51.5s -> 21.3s); -O3 aggressive optimization is enormous on
		// that code base.
		// Combined with the vectorization/FMA gains applied at -O3, hot
		// numerical code lands near the 2.42x factor.
		return [4]float64{2.60, 1.40, 1.10, 0.62}[o]
	default:
		return 1.0
	}
}

// SpeedFactor returns the time multiplier for one symbol compiled under c,
// relative to the same symbol under g++ -O2. Smaller is faster.
func SpeedFactor(c Compilation, sym *prog.Symbol) float64 {
	return speedFactor(c, sym, Semantics(c, sym))
}

// speedFactor is SpeedFactor given the symbol's semantics under c.
func speedFactor(c Compilation, sym *prog.Symbol, s fp.Semantics) float64 {
	f := optBase(c.Compiler, c.OptLevel)

	// Value-changing transformations that were actually applied to this
	// function speed it up a little. The gains are deliberately modest:
	// the paper's central performance observation is that reproducibility
	// rarely costs speed (14 of 19 examples were fastest under a
	// bitwise-reproducible compilation).
	if s.FuseFMA && sym.Features.MulAdd {
		f *= 0.97
	}
	switch {
	case s.ReassocWidth >= 8:
		f *= 0.85
	case s.ReassocWidth >= 4:
		f *= 0.88
	case s.ReassocWidth >= 2:
		f *= 0.95
	}
	if s.UnsafeMath && sym.Features.Division {
		f *= 0.97
	}
	if s.ApproxMath && sym.Features.SqrtLibm {
		f *= 0.95
	}
	if s.ExtendedPrecision {
		f *= 1.45 // x87 / widened temporaries are slow
	}
	if c.FPIC {
		f *= 1.06 // PIC defeats inlining and costs a register
	}
	// Even value-safe switch combinations move performance a little:
	// deterministic scatter in [0.97, 1.03).
	jitter := float64(hash64(c.Compiler, c.OptLevel, c.Switches, sym.File, "jitter")%600)/10000.0 - 0.03
	return f * (1 + jitter)
}
