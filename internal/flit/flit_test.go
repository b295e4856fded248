package flit

import (
	"math"
	"testing"

	"repro/internal/comp"
	"repro/internal/link"
	"repro/internal/prog"
)

// miniProgram is a synthetic application: Kernel computes a long dot
// product (reduction, mul-add) so vectorizing/contracting compilations
// perturb it; Smooth is value-safe straight arithmetic.
func miniProgram() *prog.Program {
	p := prog.New("mini")
	p.AddFile("kernel.cpp",
		&prog.Symbol{Name: "Kernel", Exported: true, Work: 5, FPOps: 8,
			Features: prog.Features{Reduction: true, MulAdd: true, ShortExpr: true}},
	)
	p.AddFile("smooth.cpp",
		&prog.Symbol{Name: "Smooth", Exported: true, Work: 2, FPOps: 4},
	)
	return p
}

// dotTest exercises Kernel through the FLiT TestCase protocol.
type dotTest struct {
	prog *prog.Program
}

func (d *dotTest) Name() string         { return "DotTest" }
func (d *dotTest) Root() string         { return "Kernel" }
func (d *dotTest) GetInputsPerRun() int { return 4 }
func (d *dotTest) GetDefaultInput() []float64 {
	in := make([]float64, 8) // 2 data-driven chunks of 4
	for i := range in {
		in[i] = 0.1*float64(i) + 0.05
	}
	return in
}

func (d *dotTest) Run(input []float64, m *link.Machine) (Result, error) {
	env, done := m.Fn(m.Program().MustSymbol("Kernel"))
	defer done()
	xs := make([]float64, 600)
	ys := make([]float64, 600)
	seed := input[0] + input[1]
	for i := range xs {
		xs[i] = math.Sin(seed + float64(i)*input[2])
		ys[i] = math.Cos(seed - float64(i)*input[3])
	}
	v := env.Dot(xs, ys)
	w := env.Sum3(v, input[0], input[1])
	return VecResult([]float64{v, w}), nil
}

func (d *dotTest) Compare(baseline, other Result) float64 {
	return L2Diff(baseline, other)
}

func newSuite() *Suite {
	p := miniProgram()
	return &Suite{
		Prog:      p,
		Tests:     []TestCase{&dotTest{prog: p}},
		Baseline:  comp.Baseline(),
		Reference: comp.PerfReference(),
	}
}

func TestL2Diff(t *testing.T) {
	a := VecResult([]float64{1, 2, 3})
	b := VecResult([]float64{1, 2, 3})
	if L2Diff(a, b) != 0 {
		t.Fatal("identical vectors not equal")
	}
	c := VecResult([]float64{1, 2, 4})
	if L2Diff(a, c) != 1 {
		t.Fatalf("L2Diff = %g, want 1", L2Diff(a, c))
	}
	if !math.IsInf(L2Diff(a, VecResult([]float64{1, 2})), 1) {
		t.Fatal("length mismatch should be +Inf")
	}
	if !math.IsInf(L2Diff(a, ScalarResult(1)), 1) {
		t.Fatal("kind mismatch should be +Inf")
	}
	if L2Diff(ScalarResult(2), ScalarResult(2.5)) != 0.5 {
		t.Fatal("scalar diff wrong")
	}
	if !math.IsInf(L2Diff(ScalarResult(1), ScalarResult(math.NaN())), 1) {
		t.Fatal("NaN should be maximal disagreement")
	}
	if !math.IsInf(L2Diff(a, VecResult([]float64{1, math.NaN(), 3})), 1) {
		t.Fatal("NaN element should be maximal disagreement")
	}
}

func TestRoundSig(t *testing.T) {
	cases := []struct {
		x    float64
		n    int
		want float64
	}{
		{123456, 2, 120000},
		{123456, 3, 123000},
		{0.0012345, 2, 0.0012},
		{-9876.5, 3, -9880},
		{0, 5, 0},
		{1.5, 0, 1.5}, // n<=0: unchanged
	}
	for _, c := range cases {
		if got := RoundSig(c.x, c.n); math.Abs(got-c.want) > math.Abs(c.want)*1e-12 {
			t.Errorf("RoundSig(%g,%d) = %g, want %g", c.x, c.n, got, c.want)
		}
	}
	if !math.IsNaN(RoundSig(math.NaN(), 3)) {
		t.Error("RoundSig(NaN) should stay NaN")
	}
	if !math.IsInf(RoundSig(math.Inf(1), 3), 1) {
		t.Error("RoundSig(Inf) should stay Inf")
	}
}

func TestDigitL2Diff(t *testing.T) {
	a := ScalarResult(129664.9)
	b := ScalarResult(129664.3) // differs only beyond 6 significant digits
	if DigitL2Diff(4)(a, b) != 0 {
		t.Fatal("4-digit compare saw a difference")
	}
	if DigitL2Diff(0)(a, b) == 0 {
		t.Fatal("full-precision compare missed the difference")
	}
	c := ScalarResult(144174.9) // 11.2% off: visible at 2 digits
	if DigitL2Diff(2)(a, c) == 0 {
		t.Fatal("2-digit compare missed an 11% difference")
	}
}

func TestResultNorm(t *testing.T) {
	if VecResult([]float64{3, 4}).Norm() != 5 {
		t.Fatal("vec norm wrong")
	}
	if ScalarResult(-7).Norm() != 7 {
		t.Fatal("scalar norm wrong")
	}
}

func TestRunAllDataDriven(t *testing.T) {
	s := newSuite()
	ex, err := link.FullBuild(s.Prog, s.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunAll(s.Tests[0], ex)
	if err != nil {
		t.Fatal(err)
	}
	// 2 chunks x 2 values each.
	if len(r.Vec) != 4 {
		t.Fatalf("data-driven result has %d values, want 4", len(r.Vec))
	}
}

func TestBaselineComparesEqualToItself(t *testing.T) {
	s := newSuite()
	res, err := s.RunMatrix([]comp.Compilation{s.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	runs := res.ForTest("DotTest")
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	if runs[0].Variable() || runs[0].CompareVal != 0 {
		t.Fatalf("baseline vs itself: compare = %g", runs[0].CompareVal)
	}
}

func TestMatrixFindsVariability(t *testing.T) {
	s := newSuite()
	res, err := s.RunMatrix(comp.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	stats := res.CompilerRunStats()
	total := 0
	for _, c := range []string{comp.GCC, comp.Clang, comp.ICPC} {
		v := stats[c]
		if v[1] == 0 {
			t.Fatalf("no runs recorded for %s", c)
		}
		total += v[0]
	}
	if total == 0 {
		t.Fatal("the full matrix produced no variability at all")
	}
	// icpc must be the most variable compiler; clang the least (Table 1).
	if !(stats[comp.ICPC][0] > stats[comp.GCC][0] && stats[comp.GCC][0] >= stats[comp.Clang][0]) {
		t.Fatalf("variability ordering wrong: %v", stats)
	}
	// Plain higher gcc opt levels stay bitwise equal.
	for _, rr := range res.ForTest("DotTest") {
		if rr.Comp.Compiler == comp.GCC && rr.Comp.Switches == "" && rr.Variable() {
			t.Fatalf("plain %s produced variability", rr.Comp)
		}
	}
}

func TestSpeedupAndSorting(t *testing.T) {
	s := newSuite()
	res, err := s.RunMatrix(comp.Matrix()[:80])
	if err != nil {
		t.Fatal(err)
	}
	sorted := res.SortedBySpeed("DotTest")
	if len(sorted) == 0 {
		t.Fatal("no sorted runs")
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Time < sorted[i].Time {
			t.Fatal("SortedBySpeed not slowest-first")
		}
	}
	// -O0 must be slower than -O2 reference: speedup < 1.
	for _, rr := range sorted {
		if rr.Comp == comp.Baseline() && res.Speedup(rr) >= 1 {
			t.Fatalf("-O0 speedup %g >= 1", res.Speedup(rr))
		}
	}
}

func TestBestAverageCompilation(t *testing.T) {
	s := newSuite()
	res, err := s.RunMatrix(comp.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	for _, compiler := range []string{comp.GCC, comp.Clang, comp.ICPC} {
		best, avg := res.BestAverageCompilation(compiler)
		if best.Compiler != compiler {
			t.Fatalf("best compilation for %s is %s", compiler, best)
		}
		if avg <= 0.9 {
			t.Fatalf("best average speedup for %s = %g, implausibly slow", compiler, avg)
		}
		if best.OptLevel == "-O0" {
			t.Fatalf("best compilation for %s is -O0", compiler)
		}
	}
}

func TestFastestEqualAndVariable(t *testing.T) {
	s := newSuite()
	res, err := s.RunMatrix(comp.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	eq, ok := res.FastestEqual("DotTest", comp.GCC)
	if !ok {
		t.Fatal("no bitwise-equal gcc run found")
	}
	if eq.Variable() {
		t.Fatal("FastestEqual returned a variable run")
	}
	v, ok := res.FastestVariable("DotTest", "")
	if !ok {
		t.Fatal("no variable run found")
	}
	if !v.Variable() {
		t.Fatal("FastestVariable returned an equal run")
	}
	if _, ok := res.FastestVariable("NoSuchTest", ""); ok {
		t.Fatal("unknown test should report no runs")
	}
}

func TestErrorSpread(t *testing.T) {
	s := newSuite()
	res, err := s.RunMatrix(comp.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	min, med, max, ok := res.ErrorSpread("DotTest")
	if !ok {
		t.Fatal("no variable runs for spread")
	}
	if !(min <= med && med <= max) {
		t.Fatalf("spread out of order: %g %g %g", min, med, max)
	}
	if max <= 0 {
		t.Fatal("max relative error should be positive")
	}
	if _, _, _, ok := res.ErrorSpread("NoSuchTest"); ok {
		t.Fatal("unknown test should have no spread")
	}
}

func TestVariableRunsConsistency(t *testing.T) {
	s := newSuite()
	res, err := s.RunMatrix(comp.Matrix())
	if err != nil {
		t.Fatal(err)
	}
	vr := res.VariableRuns()
	stats := res.CompilerRunStats()
	want := stats[comp.GCC][0] + stats[comp.Clang][0] + stats[comp.ICPC][0]
	if len(vr) != want {
		t.Fatalf("VariableRuns %d != per-compiler sum %d", len(vr), want)
	}
	for _, rr := range vr {
		if !rr.Variable() {
			t.Fatal("non-variable run in VariableRuns")
		}
	}
}

func TestDeterministicMatrix(t *testing.T) {
	s := newSuite()
	m := comp.Matrix()[:30]
	r1, err := s.RunMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	a, b := r1.ForTest("DotTest"), r2.ForTest("DotTest")
	for i := range a {
		if a[i].CompareVal != b[i].CompareVal || a[i].Time != b[i].Time {
			t.Fatalf("matrix run not deterministic at %s", a[i].Comp)
		}
	}
}
