package mfem

import "repro/internal/link"

// Vector kernels (vector.cpp). Every kernel enters its registered symbol so
// linked-in compilations decide its floating-point semantics.

// Dot returns x·y.
func Dot(m *link.Machine, x, y []float64) float64 {
	env, done := m.Fn(symVectorDot)
	defer done()
	return env.Dot(x, y)
}

// Norml2 returns ||x||₂ via the Dot kernel.
func Norml2(m *link.Machine, x []float64) float64 {
	env, done := m.Fn(symVectorNorml2)
	defer done()
	return env.Sqrt(Dot(m, x, x))
}

// Sum returns the sum of the entries of x.
func Sum(m *link.Machine, x []float64) float64 {
	env, done := m.Fn(symVectorSum)
	defer done()
	return env.Sum(x)
}

// Add stores a+b into dst.
func Add(m *link.Machine, dst, a, b []float64) {
	env, done := m.Fn(symVectorAdd)
	defer done()
	for i := range dst {
		dst[i] = env.Add(a[i], b[i])
	}
}

// Subtract stores a-b into dst.
func Subtract(m *link.Machine, dst, a, b []float64) {
	env, done := m.Fn(symVectorSubtract)
	defer done()
	for i := range dst {
		dst[i] = env.Sub(a[i], b[i])
	}
}

// Scale multiplies x by alpha in place.
func Scale(m *link.Machine, alpha float64, x []float64) {
	env, done := m.Fn(symVectorScale)
	defer done()
	env.Scale(alpha, x)
}

// Axpy computes y += alpha*x.
func Axpy(m *link.Machine, alpha float64, x, y []float64) {
	env, done := m.Fn(symVectorAxpy)
	defer done()
	env.Axpy(alpha, x, y)
}

// Normalize scales x to unit 2-norm and returns the original norm.
// A zero vector is left unchanged.
func Normalize(m *link.Machine, x []float64) float64 {
	env, done := m.Fn(symVectorNormalize)
	defer done()
	n := Norml2(m, x)
	if n == 0 {
		return 0
	}
	Scale(m, env.Div(1, n), x)
	return n
}

// DistanceTo returns ||a-b||₂ computed with a fused difference-square
// accumulation.
func DistanceTo(m *link.Machine, a, b []float64) float64 {
	env, done := m.Fn(symVectorDistanceTo)
	defer done()
	d := make([]float64, len(a))
	for i := range a {
		d[i] = env.Sub(a[i], b[i])
	}
	return env.Sqrt(env.Dot(d, d))
}

// Max returns the largest entry of x (0 for an empty vector). Comparison
// only: never variable.
func Max(m *link.Machine, x []float64) float64 {
	_, done := m.Fn(symVectorMax)
	defer done()
	if len(x) == 0 {
		return 0
	}
	best := x[0]
	for _, v := range x[1:] {
		if v > best {
			best = v
		}
	}
	return best
}
