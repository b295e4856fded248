package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps/mfem"
	"repro/internal/bisect"
	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/link"
)

// MPIRow is the outcome of the §3.6 study for one example.
type MPIRow struct {
	Example int
	// Deterministic: repeated parallel executions are bitwise equal
	// (verified with `Repeats` runs; the paper used 100).
	Deterministic bool
	// ParallelDiffers: the domain-decomposed run differs from the
	// sequential run (the grid-density/accumulation-order effect).
	ParallelDiffers bool
	// SameBlame: Bisect under the parallel configuration isolated the same
	// files and functions as the sequential search.
	SameBlame bool
	// Checked is false when no variable gcc compilation existed to bisect.
	Checked bool
}

// MPIStudy reproduces §3.6 on the 2-D MFEM examples (the ones whose
// assembly a domain decomposition reorders), under np simulated ranks. The
// per-example rows are independent and fan out through the engine's pool.
// The repeated-determinism probe deliberately bypasses the build/run cache
// — a memoized repeat would be trivially bitwise-equal and prove nothing.
func (e *Engine) MPIStudy(np, repeats int) ([]MPIRow, error) {
	if repeats < 2 {
		repeats = 2
	}
	res, err := e.Results()
	if err != nil {
		return nil, err
	}
	p := mfem.Program()
	// One shared lazy baseline build: the cached probes below never link it,
	// and the uncached determinism repeats materialize it exactly once.
	baseB := link.NewBuilder(link.FullBuildPlan(p, comp.Baseline()))
	examples := []int{2, 4, 5, 7, 8, 14, 17}
	return exec.Map(e.pool, len(examples), func(i int) (MPIRow, error) {
		exN := examples[i]
		seqCase := mfem.NewCase(exN)
		parCase := seqCase.WithProcs(np)
		row := MPIRow{Example: exN}

		seq, err := e.cache.RunAllPlanned(seqCase, baseB)
		if err != nil {
			return row, err
		}
		first, err := e.cache.RunAllPlanned(parCase, baseB)
		if err != nil {
			return row, err
		}
		// The repeated-determinism probe deliberately bypasses the cache,
		// so it needs the real executable.
		baseEx, err := baseB.Build()
		if err != nil {
			return row, err
		}
		row.Deterministic = true
		for i := 1; i < repeats; i++ {
			again, err := flit.RunAll(parCase, baseEx)
			if err != nil {
				return row, err
			}
			if flit.L2Diff(first, again) != 0 {
				row.Deterministic = false
			}
		}
		row.ParallelDiffers = flit.L2Diff(seq, first) != 0

		// Bisect equivalence: one variable gcc compilation per example.
		var variable comp.Compilation
		found := false
		for _, rr := range res.ForTest(seqCase.Name()) {
			if rr.Variable() && rr.Comp.Compiler == comp.GCC {
				variable, found = rr.Comp, true
				break
			}
		}
		if found {
			row.Checked = true
			// Sequential inside: the Map over examples is the pooled
			// fan-out level.
			seqReport, err1 := (&bisect.Search{Prog: p, Test: seqCase,
				Baseline: comp.Baseline(), Variable: variable,
				Cache: e.cache}).Run()
			parReport, err2 := (&bisect.Search{Prog: p, Test: parCase,
				Baseline: comp.Baseline(), Variable: variable,
				Cache: e.cache}).Run()
			if err1 == nil && err2 == nil {
				row.SameBlame = sameBlame(seqReport, parReport)
			}
		}
		return row, nil
	})
}

func sameBlame(a, b *bisect.Report) bool {
	key := func(r *bisect.Report) string {
		var parts []string
		for _, ff := range r.Files {
			var syms []string
			for _, sf := range ff.Symbols {
				syms = append(syms, sf.Item)
			}
			sort.Strings(syms)
			parts = append(parts, ff.File+"{"+strings.Join(syms, ",")+"}")
		}
		sort.Strings(parts)
		return strings.Join(parts, ";")
	}
	return key(a) == key(b)
}

// RenderMPI prints the study.
func RenderMPI(rows []MPIRow) string {
	out := fmt.Sprintf("%-10s %-14s %-18s %-10s\n",
		"example", "deterministic", "parallel differs", "same blame")
	for _, r := range rows {
		blame := "n/a"
		if r.Checked {
			blame = fmt.Sprintf("%v", r.SameBlame)
		}
		out += fmt.Sprintf("%-10d %-14v %-18v %-10s\n",
			r.Example, r.Deterministic, r.ParallelDiffers, blame)
	}
	return out
}
