// Package flit is the core testing framework of the reproduction: the
// user-facing test API of the FLiT tool (paper §2), the runner that executes
// every test under every compilation of a matrix, and the result store the
// multi-level analysis workflow (Figure 1) is built on.
//
// A test follows the paper's four-method protocol: how many inputs a run
// consumes (GetInputsPerRun), the default input vector (GetDefaultInput,
// longer vectors are split into multiple data-driven runs), the computation
// itself (Run), and the user-defined metric that decides whether two results
// are "equal" (Compare, returning 0 for acceptable agreement and a positive
// magnitude otherwise).
package flit

import (
	"fmt"
	"math"

	"repro/internal/link"
)

// Result is what one test execution produces: either a vector of values
// over a mesh/volume (the paper's std::string return used for "arbitrary
// meshes") or a single value (the long double return).
type Result struct {
	Vec    []float64
	Scalar float64
}

// ScalarResult wraps a single value.
func ScalarResult(x float64) Result { return Result{Scalar: x} }

// VecResult wraps a mesh-value vector.
func VecResult(v []float64) Result { return Result{Vec: v} }

// IsVec reports whether the result carries a vector.
func (r Result) IsVec() bool { return r.Vec != nil }

// Norm returns the ℓ2 magnitude of the result (used to relativize errors).
func (r Result) Norm() float64 {
	if r.IsVec() {
		return l2(r.Vec)
	}
	return math.Abs(r.Scalar)
}

// TestCase is the user-provided FLiT test class.
type TestCase interface {
	// Name identifies the test (e.g. "Example05").
	Name() string
	// Root is the program symbol the test enters; the deterministic cost
	// model charges the call-graph closure of this symbol.
	Root() string
	// GetInputsPerRun returns how many floating-point inputs one
	// execution consumes.
	GetInputsPerRun() int
	// GetDefaultInput returns the default input vector. If it is longer
	// than GetInputsPerRun, the input is split and the test is executed
	// once per chunk (data-driven testing).
	GetDefaultInput() []float64
	// Run executes the test on one input chunk against a linked
	// executable via its machine.
	Run(input []float64, m *link.Machine) (Result, error)
	// Compare returns 0 if other is acceptably equal to baseline and a
	// positive magnitude otherwise. It is the metric Bisect searches on.
	Compare(baseline, other Result) float64
}

// L2Diff is the comparison used by the MFEM study: the ℓ2 norm of the
// element-wise difference ||baseline - actual||₂. Vectors of different
// lengths are maximally different (returns +Inf): the domain decomposition
// changed.
func L2Diff(baseline, other Result) float64 {
	if baseline.IsVec() != other.IsVec() {
		return math.Inf(1)
	}
	if !baseline.IsVec() {
		d := baseline.Scalar - other.Scalar
		if d != d { // NaN anywhere is maximal disagreement
			return math.Inf(1)
		}
		return math.Abs(d)
	}
	if len(baseline.Vec) != len(other.Vec) {
		return math.Inf(1)
	}
	var sum float64
	for i := range baseline.Vec {
		d := baseline.Vec[i] - other.Vec[i]
		if d != d {
			return math.Inf(1)
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// RoundSig rounds x to n significant decimal digits. It backs the
// digit-limited comparisons of the Laghos study (Table 4).
func RoundSig(x float64, n int) float64 {
	if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) || n <= 0 {
		return x
	}
	mag := math.Ceil(math.Log10(math.Abs(x)))
	scale := math.Pow(10, float64(n)-mag)
	return math.Round(x*scale) / scale
}

// DigitL2Diff returns a Compare function that first rounds every value to
// the given number of significant digits, so only disagreement visible at
// that precision counts. digits <= 0 compares at full precision.
func DigitL2Diff(digits int) func(baseline, other Result) float64 {
	if digits <= 0 {
		return L2Diff
	}
	return func(baseline, other Result) float64 {
		return L2Diff(roundResult(baseline, digits), roundResult(other, digits))
	}
}

func roundResult(r Result, digits int) Result {
	if !r.IsVec() {
		return ScalarResult(RoundSig(r.Scalar, digits))
	}
	out := make([]float64, len(r.Vec))
	for i, v := range r.Vec {
		out[i] = RoundSig(v, digits)
	}
	return VecResult(out)
}

func l2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// WithCompare returns a view of a test case with its Compare metric
// replaced — how the Laghos study restricts comparison to a number of
// significant digits (Table 4) without touching the test itself.
func WithCompare(t TestCase, cmp func(baseline, other Result) float64) TestCase {
	return compareOverride{TestCase: t, cmp: cmp}
}

type compareOverride struct {
	TestCase
	cmp func(baseline, other Result) float64
}

func (c compareOverride) Compare(baseline, other Result) float64 {
	return c.cmp(baseline, other)
}

// Unwrap exposes the underlying test case, so the build/run cache can see
// through metric overrides (they do not change what a run produces).
func (c compareOverride) Unwrap() TestCase { return c.TestCase }

// RunAll executes a test (all of its data-driven chunks) against an
// executable and concatenates the chunk results.
func RunAll(t TestCase, ex *link.Executable) (Result, error) {
	r, _, err := runTraced(t, ex)
	return r, err
}

// runTraced is RunAll that also returns what the run read (link.Trace). An
// executable that crashes reads nothing.
func runTraced(t TestCase, ex *link.Executable) (Result, *link.Trace, error) {
	m, err := ex.NewMachine()
	if err != nil {
		return Result{}, &link.Trace{}, err
	}
	input := t.GetDefaultInput()
	per := t.GetInputsPerRun()
	if per <= 0 || per >= len(input) {
		r, err := t.Run(input, m)
		return r, m.Trace(), err
	}
	var out Result
	for off := 0; off+per <= len(input); off += per {
		r, err := t.Run(input[off:off+per], m)
		if err != nil {
			return Result{}, m.Trace(), fmt.Errorf("flit: test %s chunk at %d: %w", t.Name(), off, err)
		}
		if r.IsVec() {
			out.Vec = append(out.Vec, r.Vec...)
		} else {
			out.Vec = append(out.Vec, r.Scalar)
		}
	}
	return out, m.Trace(), nil
}
