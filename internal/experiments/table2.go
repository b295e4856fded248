package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/bisect"
	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/flit"
)

// Table2Row characterizes Bisect for one compiler (Table 2): how many
// program executions the searches used, how many File Bisect runs survived
// the mixed-binary segfaults, and how many of those also completed Symbol
// Bisect.
type Table2Row struct {
	Compiler string
	// AvgExecs is the mean number of program executions per search.
	AvgExecs float64
	// FileSuccess / FileTotal: File Bisect completed without a crash.
	FileSuccess, FileTotal int
	// SymbolSuccess / SymbolTotal: of the file successes, the searches
	// whose every found file descended to the symbol level.
	SymbolSuccess, SymbolTotal int
	// FPICRemoved counts file findings whose variability vanished under
	// -fPIC (the §2.3 "cannot go deeper" case).
	FPICRemoved int
}

// Table2 runs FLiT Bisect on the variability-inducing (test, compilation)
// pairs found by the MFEM matrix and aggregates per compiler, as §3.2 does
// for all 1,086 variable compilations. limit > 0 caps the number of
// searches per compiler (for quick runs); 0 examines everything.
//
// The searches are mutually independent, so they fan out through the
// engine's pool: the pairs to examine are selected first (sequentially, so
// the limit cap picks exactly the pairs a sequential run would), the
// hierarchical searches run concurrently, and the reports are folded into
// the per-compiler aggregates in selection order.
func (e *Engine) Table2(limit int) ([]Table2Row, int, error) {
	res, err := e.Results()
	if err != nil {
		return nil, 0, err
	}
	wf := e.Workflow()
	type agg struct {
		execs             int
		searches          int
		fileOK, fileTotal int
		symOK, symTotal   int
		fpicRemoved       int
	}
	byCompiler := map[string]*agg{}
	for _, c := range []string{comp.GCC, comp.Clang, comp.ICPC} {
		byCompiler[c] = &agg{}
	}
	totalVariable := 0
	var selected []flit.RunResult
	for _, rr := range res.VariableRuns() {
		a := byCompiler[rr.Comp.Compiler]
		if a == nil {
			continue
		}
		totalVariable++
		if limit > 0 && a.fileTotal >= limit {
			continue
		}
		a.fileTotal++
		selected = append(selected, rr)
	}
	type searchOut struct {
		report *bisect.Report
		err    error
	}
	// On a sharded engine the matrix Results already cover only the owned
	// compilations, so `selected` is this shard's slice of the variable
	// pairs — sharding it again here would leave searches owned by no
	// shard. Every selected search runs; aggregates over a shard are
	// partial by design and `flit merge` replays the full
	// characterization. (The per-compiler limit caps each shard's local
	// selection, a superset of the unsharded run's capped selection, so
	// merged replays stay fully covered.)
	outs, _ := exec.Map(e.pool, len(selected), func(k int) (searchOut, error) {
		rr := selected[k]
		// Each search runs sequentially inside: this Map is already the
		// pooled fan-out level, so -j stays the true concurrency bound.
		s := &bisect.Search{
			Prog:     wf.Suite.Prog,
			Test:     wf.TestByName(rr.Test),
			Baseline: wf.Suite.Baseline,
			Variable: rr.Comp,
			Cache:    e.cache,
		}
		report, err := s.Run()
		return searchOut{report: report, err: err}, nil
	})
	for k, out := range outs {
		a := byCompiler[selected[k].Comp.Compiler]
		report, err := out.report, out.err
		e.NoteBisect(report)
		if report != nil {
			a.execs += report.Execs
			a.searches++
		}
		if err != nil {
			var ae *bisect.AssumptionError
			if errors.As(err, &ae) {
				// Assumption violations are reported, not crashes; the
				// paper's failure category is the segfaulting executable.
				a.fileOK++
			}
			continue
		}
		a.fileOK++
		a.symTotal++
		ok := true
		for _, ff := range report.Files {
			switch ff.Status {
			case bisect.SymbolsFound:
			case bisect.FPICRemoved:
				a.fpicRemoved++
				ok = false
			default:
				ok = false
			}
		}
		if ok {
			a.symOK++
		}
	}
	var rows []Table2Row
	for _, c := range []string{comp.GCC, comp.Clang, comp.ICPC} {
		a := byCompiler[c]
		row := Table2Row{Compiler: c,
			FileSuccess: a.fileOK, FileTotal: a.fileTotal,
			SymbolSuccess: a.symOK, SymbolTotal: a.symTotal,
			FPICRemoved: a.fpicRemoved,
		}
		if a.searches > 0 {
			row.AvgExecs = float64(a.execs) / float64(a.searches)
		}
		rows = append(rows, row)
	}
	return rows, totalVariable, nil
}

// RenderTable2 prints the characterization in the paper's layout.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%14s", r.Compiler)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s", "average test executions")
	for _, r := range rows {
		fmt.Fprintf(&b, "%14.0f", r.AvgExecs)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s", "File Bisect successes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d/%-4d", r.FileSuccess, r.FileTotal)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s", "Symbol Bisect successes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9d/%-4d", r.SymbolSuccess, r.SymbolTotal)
	}
	b.WriteString("\n")
	return b.String()
}
