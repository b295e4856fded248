package flit_test

import (
	"testing"

	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/flit"
)

// BenchmarkMatrixCosts times what the MFEM matrix spends on runtimes: the
// sum orders of its 19 roots, then per compilation one SpeedFactor per
// reachable symbol and 19 sums, for all 244 compilations.
func BenchmarkMatrixCosts(b *testing.B) {
	p, tests, matrix := mfem.Program(), mfem.AllCases(), comp.Matrix()
	b.ReportAllocs()
	for b.Loop() {
		flit.MatrixCosts(p, tests, matrix)
	}
}
