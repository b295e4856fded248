package fp

import "math"

// Each operation below ORs into e.reads the Semantics fields it reads,
// once per call and never per element. Add, Sub and Mul read only
// FlushSubnormals, which every Env counts as read from the start.
//
// An operation with a fast path computes its result inline when its
// e.fast flag is set and returns it unless it is a NaN. Otherwise it runs
// the reference code (for a scalar operation, its lower-case twin), which
// steps the injection counter, flushes, and picks a NaN's sign and
// payload the way its one compiled body always has: when both operands
// are NaNs, the hardware returns one of them, and which one depends on
// the operand order the compiler chose at that site. Every unfused
// product in a fast path is converted explicitly, float64(x*y), so that
// no compiler may contract it into an FMA.

// flush applies flush-to-zero when the semantics request it.
func (e *Env) flush(x float64) float64 {
	if e.sem.FlushSubnormals && x != 0 && math.Abs(x) < 0x1p-1022 {
		return 0
	}
	return x
}

// Add returns a+b under the environment's semantics.
func (e *Env) Add(a, b float64) (r float64) {
	if r = a + b; e.fast.plain && r == r {
		return
	}
	return e.add(a, b)
}

func (e *Env) add(a, b float64) float64 {
	a = e.step(a)
	return e.flush(a + b)
}

// Sub returns a-b under the environment's semantics.
func (e *Env) Sub(a, b float64) (r float64) {
	if r = a - b; e.fast.plain && r == r {
		return
	}
	return e.sub(a, b)
}

func (e *Env) sub(a, b float64) float64 {
	a = e.step(a)
	return e.flush(a - b)
}

// Mul returns a*b under the environment's semantics.
func (e *Env) Mul(a, b float64) (r float64) {
	if r = a * b; e.fast.plain && r == r {
		return
	}
	return e.mul(a, b)
}

func (e *Env) mul(a, b float64) float64 {
	a = e.step(a)
	return e.flush(a * b)
}

// Div returns a/b. Under UnsafeMath it is rewritten to a multiplication by
// the reciprocal, which rounds twice and may differ in the last ulp.
func (e *Env) Div(a, b float64) (r float64) {
	if r = a / b; e.fast.div && r == r {
		return
	}
	return e.div(a, b)
}

// div is the reference Div; it arms Div's fast path.
func (e *Env) div(a, b float64) float64 {
	e.reads |= ReadsUnsafe
	e.fast.div = e.fast.plain && !e.sem.UnsafeMath
	a = e.step(a)
	if e.sem.UnsafeMath {
		return e.flush(a * (1 / b))
	}
	return e.flush(a / b)
}

// Neg returns -a. Negation is exact and never counted as an FP instruction.
func (e *Env) Neg(a float64) float64 { return -a }

// Abs returns |a|. Exact; not counted.
func (e *Env) Abs(a float64) float64 { return math.Abs(a) }

// MulAdd returns a*b+c. With FMA contraction or extended-precision
// intermediates it rounds once (fused); otherwise it rounds the product and
// the sum separately, exactly like unfused scalar code.
func (e *Env) MulAdd(a, b, c float64) (r float64) {
	if r = float64(a*b) + c; e.fast.unfused && r == r {
		return
	}
	return e.mulAddRecord(a, b, c)
}

// mulAddRecord is the reference MulAdd: it records MulAdd's reads, arms
// its fast path and runs mulAdd.
func (e *Env) mulAddRecord(a, b, c float64) float64 {
	e.reads |= ReadsFMA | ReadsExtended
	e.fast.unfused = e.unfused()
	return e.mulAdd(a, b, c)
}

// mulAdd is MulAdd without recording its reads.
func (e *Env) mulAdd(a, b, c float64) float64 {
	a = e.step(a)
	if e.sem.FuseFMA || e.sem.ExtendedPrecision {
		return e.flush(math.FMA(a, b, c))
	}
	return e.flush(a*b + c)
}

// unfused reports whether a plain Env's semantics leave products and sums
// rounded one by one, so that MulAdd, Dot and Axpy may compute inline.
func (e *Env) unfused() bool {
	return e.fast.plain && !e.sem.FuseFMA && !e.sem.ExtendedPrecision
}

// MulSub returns a*b-c with the same contraction rules as MulAdd.
func (e *Env) MulSub(a, b, c float64) float64 {
	e.reads |= ReadsFMA | ReadsExtended
	a = e.step(a)
	if e.sem.FuseFMA || e.sem.ExtendedPrecision {
		return e.flush(math.FMA(a, b, -c))
	}
	return e.flush(a*b - c)
}

// Sqrt returns the square root. ApproxMath substitutes an SVML-style
// Newton-refined reciprocal-sqrt implementation that is within a couple of
// ulps of the correctly rounded result but not always equal to it.
func (e *Env) Sqrt(a float64) float64 {
	e.reads |= ReadsApprox
	a = e.step(a)
	if e.sem.ApproxMath {
		return e.flush(approxSqrt(a))
	}
	return e.flush(math.Sqrt(a))
}

// Exp returns e**a; ApproxMath yields a faithfully-rounded (not
// correctly-rounded) result.
func (e *Env) Exp(a float64) float64 {
	e.reads |= ReadsApprox
	a = e.step(a)
	if e.sem.ApproxMath {
		return e.flush(approxExp(a))
	}
	return e.flush(math.Exp(a))
}

// Log returns the natural logarithm with the same rules as Exp.
func (e *Env) Log(a float64) float64 {
	e.reads |= ReadsApprox
	a = e.step(a)
	if e.sem.ApproxMath {
		return e.flush(approxLog(a))
	}
	return e.flush(math.Log(a))
}

// Pow returns a**b. Under ApproxMath it is computed as exp(b*log(a)) with
// the approximate kernels (the classic vector-math shortcut).
func (e *Env) Pow(a, b float64) float64 {
	e.reads |= ReadsApprox
	a = e.step(a)
	if e.sem.ApproxMath {
		if a == 0 {
			return 0
		}
		return e.flush(approxExp(b * approxLog(a)))
	}
	return e.flush(math.Pow(a, b))
}

// Sum reduces xs. Width-1 semantics accumulate strictly left to right.
// Wider semantics model vectorized reductions: w independent lane
// accumulators combined at the end, which reassociates the sum. Extended
// precision accumulates each lane in double-double and rounds once.
func (e *Env) Sum(xs []float64) float64 {
	if e.fast.plain && !e.sem.ExtendedPrecision {
		e.reads |= ReadsWidth | ReadsExtended
		if r := sumLanes(xs, int(e.sem.ReassocWidth)); r == r {
			return r
		}
	}
	return e.reduce(len(xs), func(i int) float64 { return e.step(xs[i]) })
}

// Dot returns the inner product of xs and ys under the environment's
// reduction and contraction semantics. Each element contributes a multiply
// and an add (two dynamic operations) like the scalar loop it models.
func (e *Env) Dot(xs, ys []float64) float64 {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	e.reads |= ReadsFMA | ReadsExtended
	if e.sem.FuseFMA || e.sem.ExtendedPrecision {
		// Fused path: each lane accumulates with a single rounding per
		// element (or none, for extended precision).
		return e.reduceFMA(n, xs, ys)
	}
	if e.fast.plain {
		e.reads |= ReadsWidth
		if r := dotLanes(xs[:n], ys[:n], int(e.sem.ReassocWidth)); r == r {
			return r
		}
	}
	return e.reduce(n, func(i int) float64 {
		return e.mul(xs[i], ys[i])
	})
}

// Norm2 returns the Euclidean norm sqrt(x·x).
func (e *Env) Norm2(xs []float64) float64 {
	return e.Sqrt(e.Dot(xs, xs))
}

// stackLanes is the widest reduction whose lane accumulators live on the
// stack; a wider one allocates them.
const stackLanes = 16

// sumLanes is Sum's fast path: reduce over xs with w lanes, no injection
// and no flush.
func sumLanes(xs []float64, w int) float64 {
	var acc float64
	if w <= 1 {
		for _, x := range xs {
			acc += x
		}
		return acc
	}
	var buf [stackLanes]float64
	lanes := floatLanes(&buf, w)
	k := 0
	for _, x := range xs {
		lanes[k] += x
		if k++; k == w {
			k = 0
		}
	}
	for _, l := range lanes {
		acc += l
	}
	return acc
}

// dotLanes is Dot's unfused fast path: reduce over the products of xs and
// ys (of equal length) with w lanes, no injection and no flush.
func dotLanes(xs, ys []float64, w int) float64 {
	var acc float64
	if w <= 1 {
		for i, x := range xs {
			acc += float64(x * ys[i])
		}
		return acc
	}
	var buf [stackLanes]float64
	lanes := floatLanes(&buf, w)
	k := 0
	for i, x := range xs {
		lanes[k] += float64(x * ys[i])
		if k++; k == w {
			k = 0
		}
	}
	for _, l := range lanes {
		acc += l
	}
	return acc
}

// floatLanes returns w zeroed lanes, in buf when they fit.
func floatLanes(buf *[stackLanes]float64, w int) []float64 {
	if w <= len(buf) {
		return buf[:w]
	}
	return make([]float64, w)
}

// ddLanes returns w zeroed double-double lanes, in buf when they fit.
func ddLanes(buf *[stackLanes]dd, w int) []dd {
	if w <= len(buf) {
		return buf[:w]
	}
	return make([]dd, w)
}

// reduce accumulates n terms produced by f under the reduction semantics.
func (e *Env) reduce(n int, f func(i int) float64) float64 {
	e.reads |= ReadsWidth | ReadsExtended
	w := int(e.sem.ReassocWidth)
	if w <= 1 {
		if e.sem.ExtendedPrecision {
			acc := dd{}
			for i := 0; i < n; i++ {
				acc = addDD(acc, f(i))
			}
			return e.flush(acc.round())
		}
		var acc float64
		for i := 0; i < n; i++ {
			acc += f(i)
		}
		return e.flush(acc)
	}
	if e.sem.ExtendedPrecision {
		var buf [stackLanes]dd
		lanes := ddLanes(&buf, w)
		for i := 0; i < n; i++ {
			lanes[i%w] = addDD(lanes[i%w], f(i))
		}
		acc := lanes[0]
		for _, l := range lanes[1:] {
			acc = addDDDD(acc, l)
		}
		return e.flush(acc.round())
	}
	var buf [stackLanes]float64
	lanes := floatLanes(&buf, w)
	for i := 0; i < n; i++ {
		lanes[i%w] += f(i)
	}
	var acc float64
	for _, l := range lanes {
		acc += l
	}
	return e.flush(acc)
}

// reduceFMA is the fused dot-product kernel: every element is folded into
// its lane with fma(x, y, lane), one rounding per element; extended
// precision removes even that rounding via double-double lanes.
func (e *Env) reduceFMA(n int, xs, ys []float64) float64 {
	e.reads |= ReadsWidth | ReadsExtended
	w := int(e.sem.ReassocWidth)
	if w < 1 {
		w = 1
	}
	if e.sem.ExtendedPrecision {
		var buf [stackLanes]dd
		lanes := ddLanes(&buf, w)
		for i := 0; i < n; i++ {
			x := e.step(xs[i])
			e.stepOnly()
			lanes[i%w] = addDDDD(lanes[i%w], twoProd(x, ys[i]))
		}
		acc := lanes[0]
		for _, l := range lanes[1:] {
			acc = addDDDD(acc, l)
		}
		return e.flush(acc.round())
	}
	var buf [stackLanes]float64
	lanes := floatLanes(&buf, w)
	for i := 0; i < n; i++ {
		x := e.step(xs[i])
		e.stepOnly()
		lanes[i%w] = math.FMA(x, ys[i], lanes[i%w])
	}
	var acc float64
	for _, l := range lanes {
		acc += l
	}
	return e.flush(acc)
}

// stepOnly advances the dynamic instruction counter without an operand (used
// when a fused instruction covers what scalar code would do in two).
func (e *Env) stepOnly() {
	if e.inj != nil {
		e.n++
	}
}

// Sum3 adds three values. UnsafeMath reassociates (a+c)+b — the kind of
// reordering -funsafe-math-optimizations performs on short chains.
func (e *Env) Sum3(a, b, c float64) float64 {
	e.reads |= ReadsUnsafe
	a = e.step(a)
	if e.sem.UnsafeMath {
		return e.flush((a + c) + b)
	}
	return e.flush((a + b) + c)
}

// Axpy computes y[i] += alpha*x[i] in place under contraction semantics.
func (e *Env) Axpy(alpha float64, x, y []float64) {
	e.reads |= ReadsFMA | ReadsExtended
	if e.unfused() {
		for i, yi := range y {
			if r := float64(alpha*x[i]) + yi; r == r {
				y[i] = r
			} else {
				y[i] = e.mulAdd(alpha, x[i], yi)
			}
		}
		return
	}
	for i := range y {
		y[i] = e.mulAdd(alpha, x[i], y[i])
	}
}

// Scale multiplies every element of x by alpha in place.
func (e *Env) Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] = e.Mul(alpha, x[i])
	}
}
