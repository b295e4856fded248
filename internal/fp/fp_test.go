package fp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestStrictIsStrict(t *testing.T) {
	if !Strict.IsStrict() {
		t.Fatal("Strict.IsStrict() = false")
	}
	if (Semantics{}).Normalize() != Strict {
		t.Fatal("zero Semantics does not normalize to Strict")
	}
	if (Semantics{FuseFMA: true}).IsStrict() {
		t.Fatal("FMA semantics reported strict")
	}
}

func TestSemanticsString(t *testing.T) {
	cases := []struct {
		sem  Semantics
		want string
	}{
		{Strict, "strict"},
		{Semantics{FuseFMA: true, ReassocWidth: 1}, "fma"},
		{Semantics{ReassocWidth: 4}, "w4"},
		{Semantics{FuseFMA: true, ReassocWidth: 4, UnsafeMath: true}, "fma,w4,unsafe"},
		{Semantics{ReassocWidth: 1, ExtendedPrecision: true}, "extprec"},
		{Semantics{ReassocWidth: 1, FlushSubnormals: true, ApproxMath: true}, "ftz,approx"},
	}
	for _, c := range cases {
		if got := c.sem.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.sem, got, c.want)
		}
	}
}

func TestStrictArithmeticMatchesIEEE(t *testing.T) {
	e := NewEnv(Strict)
	f := func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		return e.Add(a, b) == a+b &&
			e.Sub(a, b) == a-b &&
			e.Mul(a, b) == a*b &&
			(b == 0 || e.Div(a, b) == a/b) &&
			e.MulAdd(a, b, c) == a*b+c &&
			e.MulSub(a, b, c) == a*b-c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFMAContractionChangesResults(t *testing.T) {
	strict := NewEnv(Strict)
	fma := NewEnv(Semantics{FuseFMA: true, ReassocWidth: 1})
	// A case where fused and unfused differ: product rounding error matters.
	a, b := 1.0+0x1p-30, 1.0-0x1p-30
	c := -1.0
	s := strict.MulAdd(a, b, c)
	f := fma.MulAdd(a, b, c)
	if s == f {
		t.Fatalf("expected FMA to differ: strict=%g fma=%g", s, f)
	}
	if f != math.FMA(a, b, c) {
		t.Fatalf("fused result %g != math.FMA %g", f, math.FMA(a, b, c))
	}
}

func TestReassociationChangesLongSums(t *testing.T) {
	xs := make([]float64, 1000)
	v := 0.1
	for i := range xs {
		xs[i] = v
		v = math.Mod(v*1.3+0.7, 1.0) // deterministic ill-conditioned-ish data
	}
	seq := NewEnv(Strict).Sum(xs)
	w4 := NewEnv(Semantics{ReassocWidth: 4}).Sum(xs)
	w8 := NewEnv(Semantics{ReassocWidth: 8}).Sum(xs)
	if seq == w4 && seq == w8 {
		t.Fatal("expected reassociated sums to differ from sequential")
	}
	// All must be within a tight relative error of each other.
	if rel := math.Abs(seq-w4) / math.Abs(seq); rel > 1e-12 {
		t.Fatalf("w4 deviation too large: %g", rel)
	}
}

func TestReassociationSameWidthIsDeterministic(t *testing.T) {
	xs := make([]float64, 257)
	for i := range xs {
		xs[i] = 1.0 / float64(i+1)
	}
	for _, w := range []uint8{1, 2, 4, 8} {
		a := NewEnv(Semantics{ReassocWidth: w}).Sum(xs)
		b := NewEnv(Semantics{ReassocWidth: w}).Sum(xs)
		if a != b {
			t.Fatalf("width %d not deterministic: %g vs %g", w, a, b)
		}
	}
}

func TestExtendedPrecisionSumIsMoreAccurate(t *testing.T) {
	// Sum of many small values onto a large one: extended precision must be
	// at least as accurate as plain double accumulation.
	xs := make([]float64, 10001)
	xs[0] = 1e16
	for i := 1; i < len(xs); i++ {
		xs[i] = 1.0
	}
	exact := 1e16 + 10000.0
	plain := NewEnv(Strict).Sum(xs)
	ext := NewEnv(Semantics{ReassocWidth: 1, ExtendedPrecision: true}).Sum(xs)
	if math.Abs(ext-exact) > math.Abs(plain-exact) {
		t.Fatalf("extended precision less accurate: ext=%g plain=%g exact=%g", ext, plain, exact)
	}
	if ext == plain {
		t.Fatal("expected extended precision to change this sum")
	}
}

func TestUnsafeDivReciprocal(t *testing.T) {
	strict := NewEnv(Strict)
	unsafe := NewEnv(Semantics{ReassocWidth: 1, UnsafeMath: true})
	// 1/49 then *7 differs from 7/49 in the last ulp.
	diffs := 0
	for i := 1; i < 2000; i++ {
		a, b := float64(i), float64(3*i+1)
		if strict.Div(a, b) != unsafe.Div(a, b) {
			diffs++
		}
	}
	if diffs == 0 {
		t.Fatal("reciprocal division never differed from true division")
	}
}

func TestUnsafeSumReassociation(t *testing.T) {
	strict := NewEnv(Strict)
	unsafe := NewEnv(Semantics{ReassocWidth: 1, UnsafeMath: true})
	// Catastrophic case: strict (a+b)+c keeps c, unsafe (a+c)+b loses it
	// to the rounding of a+c.
	a, b, c := 1e16, -1e16, 1.0
	if got := strict.Sum3(a, b, c); got != 1 {
		t.Fatalf("strict Sum3 = %g, want 1", got)
	}
	if got := unsafe.Sum3(a, b, c); got != 0 {
		t.Fatalf("unsafe Sum3 = %g, want 0 (reassociated)", got)
	}
	diff := false
	x := 0.1
	for i := 0; i < 1000 && !diff; i++ {
		p, q, r := x, x*1.7, x*0.3
		if strict.Sum3(p, q, r) != unsafe.Sum3(p, q, r) {
			diff = true
		}
		x = math.Mod(x*9.7+0.123, 10)
	}
	if !diff {
		t.Fatal("unsafe Sum3 reassociation never changed a result")
	}
}

func TestFlushSubnormals(t *testing.T) {
	ftz := NewEnv(Semantics{ReassocWidth: 1, FlushSubnormals: true})
	sub := 0x1p-1040
	if got := ftz.Mul(sub, 1); got != 0 {
		t.Fatalf("FTZ Mul(subnormal,1) = %g, want 0", got)
	}
	if got := ftz.Add(sub, sub); got != 0 {
		t.Fatalf("FTZ Add = %g, want 0", got)
	}
	if got := ftz.Mul(1.5, 2); got != 3 {
		t.Fatalf("FTZ changed a normal result: %g", got)
	}
	strict := NewEnv(Strict)
	if got := strict.Mul(sub, 1); got != sub {
		t.Fatalf("strict flushed a subnormal: %g", got)
	}
}

func TestApproxSqrtCloseButNotAlwaysEqual(t *testing.T) {
	diffs, n := 0, 0
	x := 1.000001
	for i := 0; i < 5000; i++ {
		exact := math.Sqrt(x)
		apx := approxSqrt(x)
		rel := math.Abs(apx-exact) / exact
		if rel > 1e-14 {
			t.Fatalf("approxSqrt(%g) rel error %g too large", x, rel)
		}
		if apx != exact {
			diffs++
		}
		n++
		x *= 1.0137
	}
	if diffs == 0 {
		t.Fatal("approxSqrt never differed from math.Sqrt")
	}
	if diffs == n {
		t.Log("approxSqrt differed on every input (acceptable but surprising)")
	}
}

func TestApproxSqrtSpecialCases(t *testing.T) {
	if approxSqrt(0) != 0 {
		t.Error("approxSqrt(0) != 0")
	}
	if !math.IsInf(approxSqrt(math.Inf(1)), 1) {
		t.Error("approxSqrt(+inf) not +inf")
	}
	if !math.IsNaN(approxSqrt(-1)) {
		t.Error("approxSqrt(-1) not NaN")
	}
	if !math.IsNaN(approxSqrt(math.NaN())) {
		t.Error("approxSqrt(NaN) not NaN")
	}
}

func TestApproxExpLogFaithful(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 700 {
			return true
		}
		r := approxExp(x)
		exact := math.Exp(x)
		// Faithful: within one ulp of the correctly rounded result.
		return r == exact ||
			r == math.Nextafter(exact, math.Inf(1)) ||
			r == math.Nextafter(exact, math.Inf(-1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(x float64) bool {
		if math.IsNaN(x) || x <= 0 {
			return true
		}
		r := approxLog(x)
		exact := math.Log(x)
		return r == exact ||
			r == math.Nextafter(exact, math.Inf(1)) ||
			r == math.Nextafter(exact, math.Inf(-1))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestDotMatchesManualLoop(t *testing.T) {
	xs := []float64{1.5, -2.25, 3.125, 0.875, -1.0625}
	ys := []float64{0.5, 1.75, -2.5, 4.0, 8.25}
	e := NewEnv(Strict)
	var want float64
	for i := range xs {
		want += xs[i] * ys[i]
	}
	if got := e.Dot(xs, ys); got != want {
		t.Fatalf("strict Dot = %g, want %g", got, want)
	}
	// Mismatched lengths use the shorter.
	if got := e.Dot(xs[:3], ys); got != xs[0]*ys[0]+xs[1]*ys[1]+xs[2]*ys[2] {
		t.Fatalf("short Dot wrong: %g", got)
	}
}

func TestDotFusedDiffersOnCancellation(t *testing.T) {
	xs := []float64{1 + 0x1p-29, 1 - 0x1p-29}
	ys := []float64{1 - 0x1p-29, -(1 + 0x1p-29)}
	strict := NewEnv(Strict).Dot(xs, ys)
	fused := NewEnv(Semantics{FuseFMA: true, ReassocWidth: 1}).Dot(xs, ys)
	if strict == fused {
		t.Fatalf("expected fused dot to differ: %g", strict)
	}
}

func TestNorm2(t *testing.T) {
	e := NewEnv(Strict)
	if got := e.Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2(3,4) = %g", got)
	}
	if got := e.Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %g", got)
	}
}

func TestDDExactness(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		s := twoSum(a, b)
		if s.hi != a+b {
			return false
		}
		p := twoProd(a, b)
		return p.hi == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// twoSum error term is exact for representable cases.
	s := twoSum(1e16, 1.0)
	if s.hi+s.lo != 1e16+1.0 || s.lo == 0 {
		// 1e16+1 rounds; the lo term must carry the lost 1.0 (or part of it).
		if s.lo != 1.0 && s.lo != -1.0 {
			t.Fatalf("twoSum(1e16,1) = {%g,%g}", s.hi, s.lo)
		}
	}
}

func TestAxpyScaleLerp(t *testing.T) {
	e := NewEnv(Strict)
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	e.Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	e.Scale(0.5, y)
	if y[0] != 6 || y[2] != 18 {
		t.Fatalf("Scale wrong: %v", y)
	}
	if got := e.MulAdd(0.5, e.Sub(4, 2), 2); got != 3 {
		t.Fatalf("MulAdd(0.5, 4-2, 2) = %g", got)
	}
}

func TestInjectionFiresAtStaticSite(t *testing.T) {
	// Function with 3 static ops; inject at op 1 with +eps.
	inj := Injection{OpIndex: 1, Op: InjAdd, Eps: 0.5}
	e := NewInjectedEnv(Strict, 3, inj)
	// op0: Add(1,1) = 2 (no injection)
	if got := e.Add(1, 1); got != 2 {
		t.Fatalf("op0 = %g, want 2", got)
	}
	// op1: Add(1,1) -> (1+0.5)+1 = 2.5
	if got := e.Add(1, 1); got != 2.5 {
		t.Fatalf("op1 = %g, want 2.5 (injected)", got)
	}
	// op2: clean again
	if got := e.Add(1, 1); got != 2 {
		t.Fatalf("op2 = %g, want 2", got)
	}
	// op3 wraps to static index 0: clean.
	if got := e.Add(1, 1); got != 2 {
		t.Fatalf("op3 = %g, want 2", got)
	}
	// op4 wraps to static index 1: injected again (loop model).
	if got := e.Add(1, 1); got != 2.5 {
		t.Fatalf("op4 = %g, want 2.5 (looped injection)", got)
	}
	if e.OpsExecuted() != 5 {
		t.Fatalf("OpsExecuted = %d, want 5", e.OpsExecuted())
	}
}

func TestInjectOpApply(t *testing.T) {
	if InjAdd.Apply(2, 0.5) != 2.5 {
		t.Error("InjAdd wrong")
	}
	if InjSub.Apply(2, 0.5) != 1.5 {
		t.Error("InjSub wrong")
	}
	if InjMul.Apply(2, 0.5) != 3 {
		t.Error("InjMul wrong")
	}
	if InjDiv.Apply(3, 0.5) != 2 {
		t.Error("InjDiv wrong")
	}
	if InjectOp('?').Apply(7, 1) != 7 {
		t.Error("unknown op should be identity")
	}
}

func TestUninjectedEnvDoesNotCount(t *testing.T) {
	e := NewEnv(Strict)
	for i := 0; i < 100; i++ {
		e.Add(1, 1)
	}
	if e.OpsExecuted() != 0 {
		t.Fatalf("un-injected env counted ops: %d", e.OpsExecuted())
	}
	if e.Injected() {
		t.Fatal("Injected() true without injection")
	}
}

func TestNewInjectedEnvClampsStaticOps(t *testing.T) {
	e := NewInjectedEnv(Strict, 0, Injection{OpIndex: 0, Op: InjMul, Eps: 1})
	// staticOps clamped to 1 -> every op injected: Mul(2,3) -> (2*(1+1))*3 = 12.
	if got := e.Mul(2, 3); got != 12 {
		t.Fatalf("clamped injection Mul = %g, want 12", got)
	}
	if !e.Injected() {
		t.Fatal("Injected() false")
	}
}

func TestDeterminismAcrossEnvInstances(t *testing.T) {
	sems := []Semantics{
		Strict,
		{FuseFMA: true, ReassocWidth: 4, UnsafeMath: true},
		{ReassocWidth: 8, ExtendedPrecision: true},
		{ReassocWidth: 1, ApproxMath: true},
	}
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = math.Sin(float64(i) * 0.7)
	}
	for _, sem := range sems {
		r1 := NewEnv(sem).Dot(xs, xs)
		r2 := NewEnv(sem).Dot(xs, xs)
		if r1 != r2 {
			t.Fatalf("semantics %v not deterministic", sem)
		}
	}
}

func TestPowApproxZeroBase(t *testing.T) {
	e := NewEnv(Semantics{ReassocWidth: 1, ApproxMath: true})
	if got := e.Pow(0, 2); got != 0 {
		t.Fatalf("approx Pow(0,2) = %g", got)
	}
	s := NewEnv(Strict)
	if got := s.Pow(2, 10); got != 1024 {
		t.Fatalf("Pow(2,10) = %g", got)
	}
}

// readsOps is every Env operation, each with the fields it must record.
var readsOps = []struct {
	name string
	want Reads
	f    func(e *Env, x, y float64) float64
}{
	{"Add", 0, func(e *Env, x, y float64) float64 { return e.Add(x, y) }},
	{"Sub", 0, func(e *Env, x, y float64) float64 { return e.Sub(x, y) }},
	{"Mul", 0, func(e *Env, x, y float64) float64 { return e.Mul(x, y) }},
	{"Neg", 0, func(e *Env, x, _ float64) float64 { return e.Neg(x) }},
	{"Abs", 0, func(e *Env, x, _ float64) float64 { return e.Abs(x) }},
	{"Scale", 0, func(e *Env, x, y float64) float64 {
		v := []float64{x, y}
		e.Scale(y, v)
		return v[0] + v[1]
	}},
	{"Div", ReadsUnsafe, func(e *Env, x, y float64) float64 { return e.Div(x, y) }},
	{"Sum3", ReadsUnsafe, func(e *Env, x, y float64) float64 { return e.Sum3(x, y, -x) }},
	{"MulAdd", ReadsFMA | ReadsExtended, func(e *Env, x, y float64) float64 { return e.MulAdd(x, y, -x*y) }},
	{"MulSub", ReadsFMA | ReadsExtended, func(e *Env, x, y float64) float64 { return e.MulSub(x, y, x*y) }},
	{"Axpy", ReadsFMA | ReadsExtended, func(e *Env, x, y float64) float64 {
		v := []float64{-x * y, x}
		e.Axpy(y, []float64{x, y}, v)
		return v[0] + v[1]
	}},
	{"Sqrt", ReadsApprox, func(e *Env, x, _ float64) float64 { return e.Sqrt(math.Abs(x)) }},
	{"Exp", ReadsApprox, func(e *Env, x, _ float64) float64 { return e.Exp(x) }},
	{"Log", ReadsApprox, func(e *Env, x, _ float64) float64 { return e.Log(math.Abs(x)) }},
	{"Pow", ReadsApprox, func(e *Env, x, y float64) float64 { return e.Pow(math.Abs(x), y) }},
	{"Sum", ReadsWidth | ReadsExtended, func(e *Env, x, y float64) float64 {
		return e.Sum([]float64{x, y, 1e16, -1e16, y, x, 0.5, y, x})
	}},
	{"Dot", ReadsFMA | ReadsExtended | ReadsWidth, func(e *Env, x, y float64) float64 {
		return e.Dot([]float64{x, y, x, 1, y, x, 3, x, y}, []float64{y, x, -y, 1e-17, x, y, 1, -x, x})
	}},
	{"Norm2", ReadsFMA | ReadsExtended | ReadsWidth | ReadsApprox, func(e *Env, x, y float64) float64 {
		return e.Norm2([]float64{x, y, x, y, 1e-3})
	}},
	// The first Div and MulAdd of an Env run the reference code and arm
	// the inline fast path, which the second call takes.
	{"Div/twice", ReadsUnsafe, func(e *Env, x, y float64) float64 {
		return hashBits([]float64{e.Div(x, y), e.Div(x, y)})
	}},
	{"MulAdd/twice", ReadsFMA | ReadsExtended, func(e *Env, x, y float64) float64 {
		return hashBits([]float64{e.MulAdd(x, y, -x*y), e.MulAdd(x, y, -x*y)})
	}},
	// Longer than every lane count, so that each lane takes several terms.
	{"Sum/long", ReadsWidth | ReadsExtended, func(e *Env, x, y float64) float64 { return e.Sum(longVec(x, y)) }},
	{"Dot/long", ReadsFMA | ReadsExtended | ReadsWidth, func(e *Env, x, y float64) float64 {
		v := longVec(x, y)
		return e.Dot(v, v[1:])
	}},
	{"Axpy/long", ReadsFMA | ReadsExtended, func(e *Env, x, y float64) float64 {
		v := longVec(y, x)
		e.Axpy(x, longVec(x, y), v)
		return hashBits(v)
	}},
}

// hashBits folds the bit patterns of v into one float64's bits, so that a
// test comparing one result compares every element.
func hashBits(v []float64) float64 {
	var h uint64
	for _, x := range v {
		h = h*31 + math.Float64bits(x)
	}
	return math.Float64frombits(h)
}

// longVec returns 40 terms built from x and y, with a cancelling pair.
func longVec(x, y float64) []float64 {
	v := make([]float64, 40)
	for i := range v {
		if i%2 == 0 {
			v[i] = x / float64(i+1)
		} else {
			v[i] = y * float64(i)
		}
	}
	v[7], v[23] = 1e16, -1e16
	return v
}

// allSemantics enumerates every Semantics the matrix can produce, and
// widths 16 and 17: the widest reduction with lanes on the stack and the
// narrowest with lanes on the heap.
func allSemantics() []Semantics {
	var out []Semantics
	for bits := 0; bits < 32; bits++ {
		for _, w := range []uint8{1, 4, 8, 16, 17} {
			out = append(out, Semantics{
				FuseFMA: bits&1 != 0, UnsafeMath: bits&2 != 0, ExtendedPrecision: bits&4 != 0,
				FlushSubnormals: bits&8 != 0, ApproxMath: bits&16 != 0, ReassocWidth: w,
			})
		}
	}
	return out
}

// TestOpsRecordReads: each operation records exactly the fields it reads,
// on top of FlushSubnormals, which every Env counts from the start; Sem
// hands out every field and so records them all.
func TestOpsRecordReads(t *testing.T) {
	if got := NewEnv(Strict).Reads(); got != ReadsFTZ {
		t.Fatalf("a fresh Env reads %#x, want only ReadsFTZ", got)
	}
	if got := NewInjectedEnv(Strict, 3, Injection{Op: InjAdd, Eps: 1}).Reads(); got != ReadsFTZ {
		t.Fatalf("a fresh injected Env reads %#x, want only ReadsFTZ", got)
	}
	for _, op := range readsOps {
		// Fused, unfused (the fast paths) and flushing (the reference
		// paths): what an operation reads does not depend on the path.
		for _, sem := range []Semantics{{FuseFMA: true, ReassocWidth: 4}, {ReassocWidth: 4}, {FlushSubnormals: true}} {
			e := NewEnv(sem)
			op.f(e, 1.25, 0.75)
			if got, want := e.Reads(), op.want|ReadsFTZ; got != want {
				t.Errorf("%s under %v recorded %#x, want %#x", op.name, sem, got, want)
			}
		}
	}
	e := NewEnv(Strict)
	e.Sem()
	if e.Reads() != ReadsAll {
		t.Errorf("Sem recorded %#x, want every field", e.Reads())
	}
}

// opInputs are the operand pairs the readsOps tests run on: subnormals,
// cancellation, ±0, ±Inf, and NaNs of distinct sign and payload, alone and
// on both operands.
var opInputs = [][2]float64{
	{1.25, 0.75}, {1 + 0x1p-29, 1 - 0x1p-29}, {0x1p-1030, 0x1p-20}, {1e16, -3},
	{math.Copysign(0, -1), 2}, {math.Inf(1), 0.5}, {math.NaN(), 1}, {0.1, 7}, {1.0 / 3, math.Pi},
	{0x1p-1074, -0x1p-1060}, {math.Copysign(0, -1), math.Copysign(0, -1)}, {math.Inf(1), math.Inf(-1)},
	{math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000)},
	{math.Float64frombits(0xfff4000000000123), math.Float64frombits(0x7ff0000000000005)},
}

// TestReadsDecideResults is the trust boundary of the recording: two
// semantics that agree on every field an operation recorded give it the
// same bits, NaN payloads included, on inputs covering subnormals,
// cancellation, ±0, ±Inf and NaN.
func TestReadsDecideResults(t *testing.T) {
	sems := allSemantics()
	for _, op := range readsOps {
		for _, in := range opInputs {
			seen := map[uint16]uint64{}
			for _, sem := range sems {
				e := NewEnv(sem)
				got := math.Float64bits(op.f(e, in[0], in[1]))
				k := sem.Pack() & uint16(e.Reads())
				if want, ok := seen[k]; ok && want != got {
					t.Errorf("%s%v under %v: %x, another semantics agreeing on the recorded fields gave %x",
						op.name, in, sem, got, want)
				}
				seen[k] = got
			}
		}
	}
}

// TestPackIsInjective: distinct semantics pack apart, so a full mask keeps
// every field.
func TestPackIsInjective(t *testing.T) {
	seen := map[uint16]Semantics{}
	for _, sem := range allSemantics() {
		p := sem.Pack()
		if other, ok := seen[p]; ok {
			t.Fatalf("%v and %v both pack to %#x", sem, other, p)
		}
		seen[p] = sem
		if p&uint16(ReadsAll) != p {
			t.Fatalf("%v packs outside ReadsAll: %#x", sem, p)
		}
	}
}

// sink keeps benchmark results alive.
var sink float64

// BenchmarkEnvOps times every scalar operation, and Dot and Sum of 64
// elements at widths 1, 4, 8, 16 and 17 (lanes on the stack, then on the
// heap), with flush-to-zero off and on: the per-call cost of recording
// reads, and of the reference paths next to the fast ones, shows here.
// The scalar operations run unfused; MulAdd also runs fused.
func BenchmarkEnvOps(b *testing.B) {
	xs, ys := make([]float64, 64), make([]float64, 64)
	for i := range xs {
		xs[i], ys[i] = math.Sin(float64(i)*0.7), math.Cos(float64(i)*0.3)
	}
	for _, ftz := range []bool{false, true} {
		mode := "ftz=off"
		if ftz {
			mode = "ftz=on"
		}
		for _, op := range readsOps {
			switch op.name {
			case "Dot", "Sum", "Norm2", "Sum/long", "Dot/long", "Axpy/long":
				continue
			}
			b.Run(op.name+"/"+mode, func(b *testing.B) {
				e := NewEnv(Semantics{ReassocWidth: 1, FlushSubnormals: ftz})
				var s float64
				for b.Loop() {
					s += op.f(e, 1.25, 0.75)
				}
				sink = s
			})
		}
		b.Run("MulAdd/fma=on/"+mode, func(b *testing.B) {
			e := NewEnv(Semantics{FuseFMA: true, ReassocWidth: 1, FlushSubnormals: ftz})
			var s float64
			for b.Loop() {
				s += e.MulAdd(1.25, 0.75, s)
			}
			sink = s
		})
		for _, w := range []uint8{1, 4, 8, 16, 17} {
			sem := Semantics{ReassocWidth: w, FlushSubnormals: ftz}
			b.Run(fmt.Sprintf("Dot/w%d/%s", w, mode), func(b *testing.B) {
				e := NewEnv(sem)
				var s float64
				for b.Loop() {
					s += e.Dot(xs, ys)
				}
				sink = s
			})
			b.Run(fmt.Sprintf("Sum/w%d/%s", w, mode), func(b *testing.B) {
				e := NewEnv(sem)
				var s float64
				for b.Loop() {
					s += e.Sum(xs)
				}
				sink = s
			})
		}
	}
}
