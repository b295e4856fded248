package flit

import (
	"repro/internal/comp"
	"repro/internal/prog"
)

// MatrixCosts gives the package's external tests the runtimes RunMatrix
// derives: every test's under a full build of each compilation.
func MatrixCosts(p *prog.Program, tests []TestCase, matrix []comp.Compilation) [][]float64 {
	m := newMatrixCosts(p, tests)
	times := make([][]float64, len(matrix))
	for i, c := range matrix {
		times[i] = m.of(c)
	}
	return times
}
