package mfem

import "repro/internal/link"

// CSR is a compressed-sparse-row matrix (sparsemat.cpp).
type CSR struct {
	N      int
	RowPtr []int
	Col    []int
	Val    []float64
}

// csrBuilder accumulates entries per row and compresses with increasing
// column order. A row of a low-order mesh holds a handful of entries, so
// each row is a short slice searched linearly rather than a map.
type csrBuilder struct {
	n    int
	rows [][]csrEntry
}

type csrEntry struct {
	col int
	val float64
}

// rowCap is the entries preallocated per row: a node of a quad mesh
// couples to at most 9 nodes. A longer row grows on its own.
const rowCap = 9

func newCSRBuilder(n int) *csrBuilder {
	b := &csrBuilder{n: n, rows: make([][]csrEntry, n)}
	backing := make([]csrEntry, n*rowCap)
	for i := range b.rows {
		b.rows[i] = backing[i*rowCap : i*rowCap : (i+1)*rowCap]
	}
	return b
}

// add accumulates v into entry (i,j) with plain addition. Assembly order is
// fixed by the element loop, so accumulation itself is deterministic; the
// value-changing arithmetic happens inside the integrator kernels. A new
// entry starts at +0 and takes v by the same addition, so a first
// contribution of -0 is stored as +0.
func (b *csrBuilder) add(i, j int, v float64) {
	row := b.rows[i]
	k := 0
	for k < len(row) && row[k].col != j {
		k++
	}
	if k == len(row) {
		row = append(row, csrEntry{col: j})
		b.rows[i] = row
	}
	row[k].val += v
}

func (b *csrBuilder) build() *CSR {
	total := 0
	for _, row := range b.rows {
		total += len(row)
	}
	c := &CSR{N: b.n, RowPtr: make([]int, b.n+1),
		Col: make([]int, 0, total), Val: make([]float64, 0, total)}
	for i, row := range b.rows {
		c.RowPtr[i] = len(c.Col)
		// Columns in increasing order for determinism; rows are short,
		// so insertion sort.
		for k := 1; k < len(row); k++ {
			for m := k; m > 0 && row[m].col < row[m-1].col; m-- {
				row[m], row[m-1] = row[m-1], row[m]
			}
		}
		for _, e := range row {
			c.Col = append(c.Col, e.col)
			c.Val = append(c.Val, e.val)
		}
	}
	c.RowPtr[b.n] = len(c.Col)
	return c
}

// rowSlices returns the column indices and values of row i.
func (c *CSR) rowSlices(i int) ([]int, []float64) {
	lo, hi := c.RowPtr[i], c.RowPtr[i+1]
	return c.Col[lo:hi], c.Val[lo:hi]
}

// SpMult computes y = A·x.
func SpMult(m *link.Machine, a *CSR, x, y []float64) {
	env, done := m.Fn(symSparseMatrixMult)
	defer done()
	xs := make([]float64, 0, 16)
	for i := 0; i < a.N; i++ {
		cols, vals := a.rowSlices(i)
		xs = xs[:0]
		for _, j := range cols {
			xs = append(xs, x[j])
		}
		y[i] = env.Dot(vals, xs)
	}
}

// SpAddMult computes y += alpha·A·x.
func SpAddMult(m *link.Machine, alpha float64, a *CSR, x, y []float64) {
	env, done := m.Fn(symSparseMatrixAddMult)
	defer done()
	xs := make([]float64, 0, 16)
	for i := 0; i < a.N; i++ {
		cols, vals := a.rowSlices(i)
		xs = xs[:0]
		for _, j := range cols {
			xs = append(xs, x[j])
		}
		y[i] = env.MulAdd(alpha, env.Dot(vals, xs), y[i])
	}
}

// SpInnerProduct returns xᵀ·A·y.
func SpInnerProduct(m *link.Machine, a *CSR, x, y []float64) float64 {
	_, done := m.Fn(symSparseMatrixInnerProduct)
	defer done()
	tmp := make([]float64, a.N)
	SpMult(m, a, y, tmp)
	return Dot(m, x, tmp)
}

// SpGetDiag extracts the diagonal of A into d.
func SpGetDiag(m *link.Machine, a *CSR, d []float64) {
	_, done := m.Fn(symSparseMatrixGetDiag)
	defer done()
	for i := 0; i < a.N; i++ {
		cols, vals := a.rowSlices(i)
		d[i] = 0
		for k, j := range cols {
			if j == i {
				d[i] = vals[k]
				break
			}
		}
	}
}

// JacobiSmooth performs one damped-Jacobi sweep:
// x' = x + w·D⁻¹·(b - A·x).
func JacobiSmooth(m *link.Machine, a *CSR, b, x []float64, w float64) {
	env, done := m.Fn(symSparseMatrixJacobiSmooth)
	defer done()
	r := make([]float64, a.N)
	SpMult(m, a, x, r)
	d := make([]float64, a.N)
	SpGetDiag(m, a, d)
	for i := 0; i < a.N; i++ {
		res := env.Sub(b[i], r[i])
		x[i] = env.MulAdd(w, env.Div(res, d[i]), x[i])
	}
}

// GaussSeidel performs one forward Gauss-Seidel sweep in place.
func GaussSeidel(m *link.Machine, a *CSR, b, x []float64) {
	env, done := m.Fn(symSparseMatrixGaussSeidel)
	defer done()
	for i := 0; i < a.N; i++ {
		cols, vals := a.rowSlices(i)
		var diag float64 = 1
		s := b[i]
		for k, j := range cols {
			if j == i {
				diag = vals[k]
				continue
			}
			s = env.Sub(s, env.Mul(vals[k], x[j]))
		}
		x[i] = env.Div(s, diag)
	}
}
