package bisect

import (
	"errors"
	"fmt"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/prog"
)

// SymbolStatus describes how far below file granularity a search got for
// one found file.
type SymbolStatus int

const (
	// SymbolsFound: Symbol Bisect succeeded and isolated functions.
	SymbolsFound SymbolStatus = iota
	// SymbolsCrashed: the strong/weak mixed executable segfaulted
	// (the Table 2 failure mode).
	SymbolsCrashed
	// FPICRemoved: recompiling the file with -fPIC removed the
	// variability, so the search cannot go deeper than the file (§2.3).
	FPICRemoved
	// NoExportedSymbols: the file exports nothing overridable.
	NoExportedSymbols
	// SymbolsSkipped: the search exited early (BisectBiggest) before
	// descending into this file.
	SymbolsSkipped
	// SymbolsAssumption: a bisect assumption failed during the symbol
	// search; results may be incomplete.
	SymbolsAssumption
)

func (s SymbolStatus) String() string {
	switch s {
	case SymbolsFound:
		return "found"
	case SymbolsCrashed:
		return "crashed"
	case FPICRemoved:
		return "fpic-removed"
	case NoExportedSymbols:
		return "no-exported-symbols"
	case SymbolsSkipped:
		return "skipped"
	case SymbolsAssumption:
		return "assumption-violated"
	default:
		return "unknown"
	}
}

// FileFinding is one variability-contributing source file together with the
// outcome of the symbol-level search inside it.
type FileFinding struct {
	File    string
	Value   float64
	Status  SymbolStatus
	Symbols []Finding
}

// Report is the outcome of one full hierarchical bisect search.
type Report struct {
	Files []FileFinding
	// Execs is the total number of program executions, the paper's cost
	// measure (file search + fPIC probes + symbol searches). It is
	// identical at every parallelism.
	Execs int
	// SpecExecs is always 0: searches run no speculative probes. The
	// field remains only because the benchmark still reads it.
	SpecExecs int
	// NoVariability is set when Test over all files is already 0: the
	// deviation seen in the matrix is not attributable to compiled code
	// (e.g. it was introduced by the link step, Figure 5 caption).
	NoVariability bool
}

// AllSymbols flattens every symbol finding, ordered by decreasing value.
func (r *Report) AllSymbols() []Finding {
	var out []Finding
	for _, f := range r.Files {
		out = append(out, f.Symbols...)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].Value < out[j].Value; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Search configures one hierarchical FLiT Bisect run: which program, which
// FLiT test observes the variability, the trusted and the suspect
// compilations, and how many top contributors to find (K <= 0 runs the full
// BisectAll with dynamic verification; K > 0 runs BisectBiggest).
type Search struct {
	Prog     *prog.Program
	Test     flit.TestCase
	Baseline comp.Compilation
	Variable comp.Compilation
	K        int
	// Pool fans out the independent per-file symbol searches of a full
	// (K <= 0) run; nil searches them sequentially. The report is
	// bit-identical either way: each file's search is self-contained and
	// findings are collected in file order. The File Bisect phase, each
	// file's search and the cross-file phase of BisectBiggest (K > 0, whose
	// early exit depends on the symbols found so far) run their probes one
	// at a time, in the paper's order.
	Pool *exec.Pool
	// Cache memoizes test runs by build plan, so evaluations repeated
	// across bisect steps and across searches (the baseline run above all)
	// execute once. Execution counts are unaffected: the paper's run
	// accounting is per search, tracked by each Searcher's own memo.
	Cache *flit.Cache
	// Shard restricts the per-file symbol searches of a full (K <= 0) run
	// to this shard's slice of the found-file index space; skipped files
	// are reported with SymbolsSkipped. The adaptive File Bisect phase runs
	// on every shard (its evaluations are the shared prefix every symbol
	// search depends on), so a sharded report exists only to fill the Cache
	// for artifact export — `flit merge` replays the full search against
	// the merged cache. The zero value searches every file. Drivers that
	// already shard at a coarser level (whole searches) leave this zero.
	Shard exec.Shard
}

// runPlanned executes the search's test against a lazily-materialized
// build plan through the build/run cache: memoized probes — within this
// search, across searches, or seeded from a warm-start artifact — replay
// without linking the plan at all.
func (s *Search) runPlanned(b *link.Builder) (flit.Result, error) {
	return s.Cache.RunAllPlanned(s.Test, b)
}

// Run performs File Bisect followed by Symbol Bisect inside each found file
// (paper §2.3). It returns the report together with the first fatal error:
// a crash during File Bisect aborts the search (the executable under test
// died), while crashes during a file's Symbol Bisect are recorded in that
// file's status and the search continues with the next file.
func (s *Search) Run() (*Report, error) {
	baseRes, err := s.runPlanned(link.NewBuilder(link.FullBuildPlan(s.Prog, s.Baseline)))
	if err != nil {
		return nil, fmt.Errorf("bisect: baseline execution failed: %w", err)
	}

	report := &Report{}
	fileSearch := NewSearcher(func(files []string) (float64, error) {
		got, err := s.runPlanned(link.NewBuilder(link.FileMixPlan(s.Prog, s.Baseline, s.Variable, files)))
		if err != nil {
			return 0, err
		}
		return s.Test.Compare(baseRes, got), nil
	})

	var fileFindings []Finding
	if s.K > 0 {
		fileFindings, err = fileSearch.Biggest(s.Prog.FileNames(), s.K)
	} else {
		fileFindings, err = fileSearch.All(s.Prog.FileNames())
	}
	report.Execs += fileSearch.Execs()
	if err != nil {
		return report, err
	}
	if len(fileFindings) == 0 {
		report.NoVariability = true
		return report, nil
	}

	if s.K > 0 {
		// BisectBiggest couples the files: a file whose whole-file
		// magnitude is below the k-th symbol found so far is skipped, so
		// the phase must observe earlier files' findings and stays
		// sequential.
		kthValue := func() float64 {
			syms := report.AllSymbols()
			if len(syms) < s.K {
				return -1
			}
			return syms[s.K-1].Value
		}
		for _, ff := range fileFindings {
			finding := FileFinding{File: ff.Item, Value: ff.Value}
			// Early exit across levels: a file whose whole-file magnitude
			// is below the k-th found symbol cannot contain a larger
			// symbol.
			if ff.Value <= kthValue() {
				finding.Status = SymbolsSkipped
				report.Files = append(report.Files, finding)
				continue
			}
			report.Execs += s.searchSymbols(&finding, baseRes)
			report.Files = append(report.Files, finding)
		}
		return report, nil
	}

	// Full search: every found file gets an independent Symbol Bisect, so
	// the per-file searches fan out through the pool. Each search is
	// self-contained (own Searcher, own memo, own execution count); the
	// findings are collected in file order and the counts summed, so the
	// report is identical to the sequential one.
	type symOut struct {
		finding FileFinding
		execs   int
	}
	outs, _ := exec.Map(s.Pool, len(fileFindings), func(i int) (symOut, error) {
		ff := fileFindings[i]
		finding := FileFinding{File: ff.Item, Value: ff.Value}
		if !s.Shard.Owns(i) {
			finding.Status = SymbolsSkipped // another shard searches this file
			return symOut{finding: finding}, nil
		}
		execs := s.searchSymbols(&finding, baseRes)
		return symOut{finding: finding, execs: execs}, nil
	})
	for _, o := range outs {
		report.Files = append(report.Files, o.finding)
		report.Execs += o.execs
	}
	return report, nil
}

// searchSymbols performs the Symbol Bisect phase for one found file and
// returns how many program executions it used.
func (s *Search) searchSymbols(finding *FileFinding, baseRes flit.Result) int {
	// The -fPIC probe: rebuild the whole file with -fPIC under the
	// variable compilation; if the variability disappears the optimization
	// needed translation-unit-wide freedom and the search must stop here.
	execs := 1 // the probe run
	probeRes, err := s.runPlanned(link.NewBuilder(link.FPICProbePlan(s.Prog, s.Baseline, s.Variable, finding.File)))
	if err != nil {
		finding.Status = SymbolsCrashed
		return execs
	}
	if s.Test.Compare(baseRes, probeRes) == 0 {
		finding.Status = FPICRemoved
		return execs
	}

	symbols := s.Prog.ExportedSymbols(finding.File)
	if len(symbols) == 0 {
		finding.Status = NoExportedSymbols
		return execs
	}
	names := make([]string, len(symbols))
	for i, sym := range symbols {
		names[i] = sym.Name
	}

	symSearch := NewSearcher(func(syms []string) (float64, error) {
		got, err := s.runPlanned(link.NewBuilder(link.SymbolMixPlan(s.Prog, s.Baseline, s.Variable, syms)))
		if err != nil {
			return 0, err
		}
		return s.Test.Compare(baseRes, got), nil
	})
	var found []Finding
	if s.K > 0 {
		found, err = symSearch.Biggest(names, s.K)
	} else {
		found, err = symSearch.All(names)
	}
	execs += symSearch.Execs()
	finding.Symbols = found
	switch {
	case err == nil:
		finding.Status = SymbolsFound
	case errors.Is(err, link.ErrSegfault):
		finding.Status = SymbolsCrashed
	default:
		finding.Status = SymbolsAssumption
	}
	return execs
}
