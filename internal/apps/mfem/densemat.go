package mfem

import "repro/internal/link"

// Dense is a row-major dense matrix (densemat.cpp).
type Dense struct {
	R, C int
	A    []float64
}

// NewDense allocates an R×C zero matrix.
func NewDense(r, c int) *Dense {
	return &Dense{R: r, C: c, A: make([]float64, r*c)}
}

// At returns element (i,j).
func (d *Dense) At(i, j int) float64 { return d.A[i*d.C+j] }

// Set stores element (i,j).
func (d *Dense) Set(i, j int, v float64) { d.A[i*d.C+j] = v }

// Row returns row i as a slice view.
func (d *Dense) Row(i int) []float64 { return d.A[i*d.C : (i+1)*d.C] }

// DenseMult computes y = D·x.
func DenseMult(m *link.Machine, d *Dense, x, y []float64) {
	env, done := m.Fn(symDenseMatrixMult)
	defer done()
	for i := 0; i < d.R; i++ {
		y[i] = env.Dot(d.Row(i), x)
	}
}

// DenseMultTranspose computes y = Dᵀ·x.
func DenseMultTranspose(m *link.Machine, d *Dense, x, y []float64) {
	env, done := m.Fn(symDenseMatrixMultTranspose)
	defer done()
	col := make([]float64, d.R)
	for j := 0; j < d.C; j++ {
		for i := 0; i < d.R; i++ {
			col[i] = d.At(i, j)
		}
		y[j] = env.Dot(col, x)
	}
}

// AddMultAAt computes M += a·A·Aᵀ — the straightforward nested-loop kernel
// of the paper's Finding 2, the single function blamed for MFEM example
// 13's 183–197% relative error under FMA/AVX2 compilations.
func AddMultAAt(m *link.Machine, a float64, A, M *Dense) {
	env, done := m.Fn(symDenseMatrixAddMult_a_AAt)
	defer done()
	for i := 0; i < A.R; i++ {
		for j := 0; j < A.R; j++ {
			dot := env.Dot(A.Row(i), A.Row(j))
			M.Set(i, j, env.MulAdd(a, dot, M.At(i, j)))
		}
	}
}

// Det2 returns the determinant of the top-left 2×2 block.
func Det2(m *link.Machine, d *Dense) float64 {
	env, done := m.Fn(symDenseMatrixDet2)
	defer done()
	return env.MulSub(d.At(0, 0), d.At(1, 1), env.Mul(d.At(0, 1), d.At(1, 0)))
}

// Trace returns the sum of the diagonal.
func Trace(m *link.Machine, d *Dense) float64 {
	env, done := m.Fn(symDenseMatrixTrace)
	defer done()
	n := d.R
	if d.C < n {
		n = d.C
	}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = d.At(i, i)
	}
	return env.Sum(diag)
}

// FNorm returns the Frobenius norm.
func FNorm(m *link.Machine, d *Dense) float64 {
	env, done := m.Fn(symDenseMatrixFNorm)
	defer done()
	return env.Sqrt(env.Dot(d.A, d.A))
}

// Invert2x2 inverts the top-left 2×2 block in place and returns the
// determinant it divided by.
func Invert2x2(m *link.Machine, d *Dense) float64 {
	env, done := m.Fn(symDenseMatrixInvert2x2)
	defer done()
	det := Det2(m, d)
	inv := env.Div(1, det)
	a, b, c, dd := d.At(0, 0), d.At(0, 1), d.At(1, 0), d.At(1, 1)
	d.Set(0, 0, env.Mul(dd, inv))
	d.Set(0, 1, env.Mul(-b, inv))
	d.Set(1, 0, env.Mul(-c, inv))
	d.Set(1, 1, env.Mul(a, inv))
	return det
}

// LSolve solves L·x = b in place for a lower-triangular L with nonzero
// diagonal (forward substitution).
func LSolve(m *link.Machine, L *Dense, b []float64) {
	env, done := m.Fn(symDenseMatrixLSolve)
	defer done()
	for i := 0; i < L.R; i++ {
		s := env.Dot(L.Row(i)[:i], b[:i])
		b[i] = env.Div(env.Sub(b[i], s), L.At(i, i))
	}
}
