// Package fp models the floating-point semantics that a compilation assigns
// to a single function.
//
// In the FLiT paper (Bentley et al., HPDC 2019) result variability is induced
// by real compilers applying value-changing optimizations: fused
// multiply-add contraction, reassociation of reductions for vectorization,
// unsafe-math rewrites (reciprocal division, expression reordering),
// higher-precision intermediates, and substituted math libraries. This
// package reproduces those effects directly: a Semantics value says which
// transformations are in force, and an Env executes IEEE-754 double
// arithmetic under those transformations. All operations are deterministic;
// two runs under equal Semantics produce bitwise-identical results.
package fp

import "fmt"

// Semantics describes the value-changing transformations a compilation
// applied to one function. The zero value is NOT strict; use Strict.
type Semantics struct {
	// FuseFMA contracts a*b+c patterns into a single fused multiply-add
	// with one rounding (e.g. gcc -mfma, icpc default at -O2).
	FuseFMA bool

	// ReassocWidth is the number of independent accumulators used for
	// reductions (sums, dot products). 1 reproduces strict left-to-right
	// evaluation; 4 models AVX2 vectorization, 8 models AVX-512. Values
	// other than 1 change the rounding of long reductions.
	ReassocWidth uint8

	// UnsafeMath enables algebraic rewrites that are not value-safe:
	// division by reciprocal multiplication and reordering of short
	// expression chains (gcc -funsafe-math-optimizations,
	// icpc -fp-model fast=2, xlc++ -O3 without -qstrict).
	UnsafeMath bool

	// ExtendedPrecision keeps intermediates of compound operations at
	// higher than double precision and rounds once at the end (x87 80-bit
	// temporaries, or FMA-based double-double accumulation).
	ExtendedPrecision bool

	// FlushSubnormals flushes subnormal results to zero (FTZ/DAZ, enabled
	// by icpc by default and by -ffast-math).
	FlushSubnormals bool

	// ApproxMath substitutes correctly-rounded libm calls (sqrt, exp, ...)
	// with faster, slightly-off vector-math implementations (Intel SVML,
	// introduced by the icpc link step regardless of compile flags).
	ApproxMath bool
}

// Strict is the baseline semantics: no contraction, sequential reductions,
// value-safe transformations only, correctly rounded libm. It corresponds to
// the paper's trusted baseline compilation g++ -O0.
var Strict = Semantics{ReassocWidth: 1}

// Normalize returns s with out-of-range fields clamped to valid values.
// A ReassocWidth of 0 is treated as 1 (sequential).
func (s Semantics) Normalize() Semantics {
	if s.ReassocWidth == 0 {
		s.ReassocWidth = 1
	}
	return s
}

// IsStrict reports whether s is value-equivalent to the Strict baseline.
func (s Semantics) IsStrict() bool {
	return s.Normalize() == Strict
}

// String returns a compact flag-style rendering such as
// "fma,w4,unsafe" or "strict".
func (s Semantics) String() string {
	s = s.Normalize()
	if s.IsStrict() {
		return "strict"
	}
	out := ""
	add := func(t string) {
		if out != "" {
			out += ","
		}
		out += t
	}
	if s.FuseFMA {
		add("fma")
	}
	if s.ReassocWidth > 1 {
		add(fmt.Sprintf("w%d", s.ReassocWidth))
	}
	if s.UnsafeMath {
		add("unsafe")
	}
	if s.ExtendedPrecision {
		add("extprec")
	}
	if s.FlushSubnormals {
		add("ftz")
	}
	if s.ApproxMath {
		add("approx")
	}
	return out
}

// Reads is a set of Semantics fields, laid out as a mask over Pack: an
// Env's operations OR into it the fields they read, once per call.
type Reads uint16

// The fields an operation can read. Every Env counts FlushSubnormals as
// read from the start, because any rounding result may be subnormal.
const (
	ReadsFMA      Reads = 1 << 0    // FuseFMA: MulAdd, MulSub, Dot
	ReadsUnsafe   Reads = 1 << 1    // UnsafeMath: Div, Sum3
	ReadsExtended Reads = 1 << 2    // ExtendedPrecision: MulAdd, MulSub, reductions
	ReadsFTZ      Reads = 1 << 3    // FlushSubnormals: always
	ReadsApprox   Reads = 1 << 4    // ApproxMath: Sqrt, Exp, Log, Pow
	ReadsWidth    Reads = 0xff << 8 // ReassocWidth: reductions
	// ReadsAll covers every field.
	ReadsAll = ReadsFMA | ReadsUnsafe | ReadsExtended | ReadsFTZ | ReadsApprox | ReadsWidth
)

// Pack lays the normalized s out in 16 bits, one bit per flag (the bit of
// its Reads constant) and ReassocWidth in the high byte. It is injective,
// and Pack(s)&uint16(r) keeps exactly the fields r covers, so two
// semantics agree on those fields exactly when their masked packs are
// equal.
func (s Semantics) Pack() uint16 {
	s = s.Normalize()
	p := uint16(s.ReassocWidth) << 8
	// In the order of the Reads bits.
	for bit, on := range [...]bool{s.FuseFMA, s.UnsafeMath, s.ExtendedPrecision, s.FlushSubnormals, s.ApproxMath} {
		if on {
			p |= 1 << bit
		}
	}
	return p
}
