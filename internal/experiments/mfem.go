// Package experiments regenerates every table and figure of the paper's
// evaluation (§3) on the simulated toolchain: the MFEM performance/
// reproducibility study (Table 1, Figures 4–6), the Bisect characterization
// (Table 2), the code census (Table 3), the two MFEM findings, the Laghos
// case study (the §1 motivating example, Table 4, and the NaN bug), the
// LULESH injection study (Table 5), and the MPI study (§3.6).
//
// Each experiment returns structured rows; String methods render them in
// the shape the paper reports. Absolute numbers differ from the paper (the
// substrate is a simulator, not the authors' testbed); the shape — who
// wins, by what rough factor, where the crossovers fall — is the
// reproduction target, and EXPERIMENTS.md records paper-vs-measured.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps/mfem"
	"repro/internal/comp"
)

// Table1Row is one compiler's summary (Table 1).
type Table1Row struct {
	Compiler     string
	Version      string
	Released     string
	VariableRuns int
	TotalRuns    int
	BestFlags    comp.Compilation
	Speedup      float64
}

// Table1 reproduces Table 1: per-compiler variability rates and the best
// average compilation.
func (e *Engine) Table1() ([]Table1Row, error) {
	res, err := e.Results()
	if err != nil {
		return nil, err
	}
	stats := res.CompilerRunStats()
	var rows []Table1Row
	for _, ci := range comp.Compilers() {
		best, speedup := res.BestAverageCompilation(ci.Name)
		s := stats[ci.Name]
		rows = append(rows, Table1Row{
			Compiler: ci.Name, Version: ci.Version, Released: ci.Released,
			VariableRuns: s[0], TotalRuns: s[1],
			BestFlags: best, Speedup: speedup,
		})
	}
	return rows, nil
}

// RenderTable1 prints Table 1 in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %-22s %-44s %s\n",
		"Compiler", "Released", "# Variable Runs", "Best Flags", "Speedup")
	for _, r := range rows {
		pct := 100 * float64(r.VariableRuns) / float64(r.TotalRuns)
		fmt.Fprintf(&b, "%-12s %-14s %5d of %5d (%4.1f%%)  %-44s %.3f\n",
			r.Version, r.Released, r.VariableRuns, r.TotalRuns, pct,
			r.BestFlags.OptLevel+" "+r.BestFlags.Switches, r.Speedup)
	}
	return b.String()
}

// Figure4Point is one compilation of one example's speedup scatter.
type Figure4Point struct {
	Comp     comp.Compilation
	Speedup  float64
	Variable bool
	Error    float64
}

// Figure4Series is the sorted scatter for one example plus the two
// callouts of the figure.
type Figure4Series struct {
	Example         string
	Points          []Figure4Point
	FastestEqual    Figure4Point
	FastestVariable Figure4Point
	HasEqual        bool
	HasVariable     bool
}

// Figure4 reproduces one panel of Figure 4: compilations of one example
// ordered slowest to fastest, marked bitwise-equal or variable.
func (e *Engine) Figure4(example int) (*Figure4Series, error) {
	res, err := e.Results()
	if err != nil {
		return nil, err
	}
	name := mfem.NewCase(example).Name()
	s := &Figure4Series{Example: name}
	for _, rr := range res.SortedBySpeed(name) {
		s.Points = append(s.Points, Figure4Point{
			Comp: rr.Comp, Speedup: res.Speedup(rr),
			Variable: rr.Variable(), Error: rr.RelativeErr,
		})
	}
	if eq, ok := res.FastestEqual(name, ""); ok {
		s.FastestEqual = Figure4Point{Comp: eq.Comp, Speedup: res.Speedup(eq)}
		s.HasEqual = true
	}
	if va, ok := res.FastestVariable(name, ""); ok {
		s.FastestVariable = Figure4Point{Comp: va.Comp, Speedup: res.Speedup(va),
			Variable: true, Error: va.RelativeErr}
		s.HasVariable = true
	}
	return s, nil
}

// Figure5Row is one example's grouped bars in Figure 5.
type Figure5Row struct {
	Example int
	// EqualByCompiler is the fastest bitwise-equal speedup per compiler;
	// a missing entry reproduces the figure's missing bars (e.g. the icpc
	// link step made examples 4, 5, 9, 10, 15 variable at every icpc
	// compilation).
	EqualByCompiler map[string]float64
	// FastestVariable is the fastest variability-exhibiting speedup over
	// all compilers; absent for the invariant examples 12 and 18.
	FastestVariable float64
	HasVariable     bool
	// FastestIsReproducible is the headline: true when no variable
	// compilation beats the fastest reproducible one.
	FastestIsReproducible bool
}

// Figure5 reproduces the performance histogram of Figure 5.
func (e *Engine) Figure5() ([]Figure5Row, error) {
	res, err := e.Results()
	if err != nil {
		return nil, err
	}
	var rows []Figure5Row
	for i := 1; i <= 19; i++ {
		name := mfem.NewCase(i).Name()
		row := Figure5Row{Example: i, EqualByCompiler: map[string]float64{}}
		bestEq := 0.0
		for _, c := range []string{comp.GCC, comp.Clang, comp.ICPC} {
			if eq, ok := res.FastestEqual(name, c); ok {
				sp := res.Speedup(eq)
				row.EqualByCompiler[c] = sp
				if sp > bestEq {
					bestEq = sp
				}
			}
		}
		if va, ok := res.FastestVariable(name, ""); ok {
			row.FastestVariable = res.Speedup(va)
			row.HasVariable = true
		}
		row.FastestIsReproducible = !row.HasVariable || bestEq >= row.FastestVariable
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure6Row is one example's variability census in Figure 6.
type Figure6Row struct {
	Example       int
	VariableComps int // of the 244 compilations
	MinErr        float64
	MedianErr     float64
	MaxErr        float64
}

// Figure6 reproduces Figure 6: per-example count of variability-inducing
// compilations and the spread of relative ℓ2 errors.
func (e *Engine) Figure6() ([]Figure6Row, error) {
	res, err := e.Results()
	if err != nil {
		return nil, err
	}
	var rows []Figure6Row
	for i := 1; i <= 19; i++ {
		name := mfem.NewCase(i).Name()
		count := 0
		for _, rr := range res.ForTest(name) {
			if rr.Variable() {
				count++
			}
		}
		row := Figure6Row{Example: i, VariableComps: count}
		if min, med, max, ok := res.ErrorSpread(name); ok {
			row.MinErr, row.MedianErr, row.MaxErr = min, med, max
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table3Row compares a program census against the paper's Table 3.
type Table3Row struct {
	Metric   string
	Measured float64
	Paper    float64
}

// Table3 reports the mini-MFEM code statistics next to the paper's values.
func Table3() []Table3Row {
	st := mfem.Program().Stats()
	return []Table3Row{
		{"source files", float64(st.SourceFiles), 97},
		{"average functions per file", st.AvgFuncsPerFile, 31},
		{"total functions", float64(st.TotalFunctions), 2998},
		{"source lines of code", float64(st.SLOC), 103205},
	}
}

// Finding describes one of the two findings reported to the MFEM team.
type Finding struct {
	Example int
	// Compilations that induced the variability Bisect explained.
	Compilations []comp.Compilation
	// Functions blamed (union over the examined compilations).
	Functions []string
	// MaxRelErr is the largest relative error observed.
	MaxRelErr float64
}

// Findings reproduces Findings 1 and 2 (§3.2): the multi-function mat/vec
// blame of example 8 and the single-function AddMult_a_AAt blame of
// example 13. The searches stay sequential — the 5-compilation cap makes
// later searches depend on earlier outcomes — but repeated build/run pairs
// hit the engine's cache.
func (e *Engine) Findings() ([]Finding, error) {
	res, err := e.Results()
	if err != nil {
		return nil, err
	}
	wf := e.Workflow()
	var out []Finding
	for _, exN := range []int{8, 13} {
		name := mfem.NewCase(exN).Name()
		f := Finding{Example: exN}
		funcs := map[string]bool{}
		for _, rr := range res.ForTest(name) {
			if !rr.Variable() {
				continue
			}
			if rr.RelativeErr > f.MaxRelErr {
				f.MaxRelErr = rr.RelativeErr
			}
			// Same-vendor searches only: cross-vendor file mixes can
			// segfault (that is Table 2's subject, not this one).
			if rr.Comp.Compiler != comp.GCC {
				continue
			}
			if len(f.Compilations) >= 5 {
				continue
			}
			report, err := wf.Bisect(wf.TestByName(name), rr.Comp, 0)
			e.NoteBisect(report)
			if err != nil {
				continue
			}
			f.Compilations = append(f.Compilations, rr.Comp)
			for _, sf := range report.AllSymbols() {
				funcs[sf.Item] = true
			}
		}
		for fn := range funcs {
			f.Functions = append(f.Functions, fn)
		}
		sort.Strings(f.Functions)
		out = append(out, f)
	}
	return out, nil
}
