package experiments

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/inject"
	"repro/internal/store"
)

// This file declares the grammar of the canonical commands — run, bisect
// and experiments — once, for the CLI, for replays of the exact []string an
// artifact or a coordinator grant carries, and for coordinator submissions.
// It lives here so a worker can execute a recorded campaign command
// without shelling out to its own binary.

// Render executes a parsed command against an engine, writing the
// command's normal output to w.
type Render func(eng *Engine, w io.Writer) error

// DeclareCommand registers the flags of the command name on fs and returns
// the function that, once fs has parsed, validates the test name, -comp
// compilation or experiment names and returns the canonical command.
func DeclareCommand(name string, fs *flag.FlagSet) (func() ([]string, Render, error), error) {
	switch name {
	case "run":
		return declareRun(fs), nil
	case "bisect":
		return declareBisect(fs), nil
	case "experiments":
		return declareExperiments(fs), nil
	}
	return nil, fmt.Errorf("unknown command %q (want run, bisect or experiments)", name)
}

// ParseCommand parses and validates a command given as arguments, e.g.
// {"bisect", "-test", "Example13", "-comp", "g++ -O3 -mavx2 -mfma"}.
func ParseCommand(args []string) ([]string, Render, error) {
	if len(args) == 0 {
		return nil, nil, errors.New("no command given (want run, bisect or experiments)")
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	parse, err := DeclareCommand(args[0], fs)
	if err != nil {
		return nil, nil, err
	}
	if err := fs.Parse(args[1:]); err != nil {
		return nil, nil, fmt.Errorf("command %q: %v", args, err)
	}
	return parse()
}

// RunCommand runs a canonical command against eng, writing the command's
// normal output to w. The engine's own shard setting applies, so the same
// entry point serves live CLI runs and merge replays (unsharded) and shard
// runs and coordinator workers (sharded).
func RunCommand(eng *Engine, command []string, w io.Writer) error {
	_, run, err := ParseCommand(command)
	if err != nil {
		return err
	}
	return run(eng, w)
}

// testFlag declares -test, which run and bisect share.
func testFlag(fs *flag.FlagSet, usage string) *string { return fs.String("test", "", usage) }

// checkArgs rejects positional arguments to run or bisect, which take
// none, and a -test name outside the MFEM suite.
func checkArgs(fs *flag.FlagSet, test string) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("%s takes no positional arguments (got %q)", fs.Name(), fs.Args())
	}
	if test != "" && !slices.ContainsFunc(mfem.AllCases(), func(tc flit.TestCase) bool { return tc.Name() == test }) {
		return fmt.Errorf("unknown test %q (Example01..Example19)", test)
	}
	return nil
}

// declareRun is the grammar of `run [-test ExampleNN]`: the
// compilation-matrix table, optionally restricted to one test.
func declareRun(fs *flag.FlagSet) func() ([]string, Render, error) {
	test := testFlag(fs, "restrict output to one test (e.g. Example05)")
	return func() ([]string, Render, error) {
		if err := checkArgs(fs, *test); err != nil {
			return nil, nil, err
		}
		command := []string{"run"}
		if *test != "" {
			command = append(command, "-test", *test)
		}
		return command, func(eng *Engine, w io.Writer) error { return renderRun(eng, *test, w) }, nil
	}
}

func renderRun(eng *Engine, test string, w io.Writer) error {
	res, err := eng.Results()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-46s %-10s %-12s %s\n", "test", "compilation", "speedup", "compare", "class")
	for _, name := range res.TestNames() {
		if test != "" && name != test {
			continue
		}
		for _, rr := range res.SortedBySpeed(name) {
			class := "bitwise-equal"
			if rr.Variable() {
				class = "VARIABLE"
			}
			fmt.Fprintf(w, "%-12s %-46s %-10.3f %-12.3g %s\n",
				name, rr.Comp, res.Speedup(rr), rr.CompareVal, class)
		}
	}
	return nil
}

// declareBisect is the grammar of `bisect -test ExampleNN -comp "compiler
// -Olevel [switches]" [-k N]`: one Bisect report, sharded when the engine
// is.
func declareBisect(fs *flag.FlagSet) func() ([]string, Render, error) {
	test := testFlag(fs, "test name (e.g. Example13)")
	compStr := fs.String("comp", "", "variable compilation, e.g. 'g++ -O3 -mavx2 -mfma'")
	k := fs.Int("k", 0, "find only the top-k contributors (0 = all, with verification)")
	return func() ([]string, Render, error) {
		if err := checkArgs(fs, *test); err != nil {
			return nil, nil, err
		}
		if *test == "" || *compStr == "" {
			return nil, nil, errors.New("bisect requires -test and -comp")
		}
		variable, err := ParseCompilation(*compStr)
		if err != nil {
			return nil, nil, err
		}
		// The canonical compilation string (variable.String round-trips
		// through ParseCompilation) keeps the command whitespace-independent.
		command := []string{"bisect", "-test", *test, "-comp", variable.String(), "-k", strconv.Itoa(*k)}
		return command, func(eng *Engine, w io.Writer) error { return renderBisect(eng, *test, variable, *k, w) }, nil
	}
}

// ParseCompilation parses the CLI's "compiler -Olevel [switches]" form.
func ParseCompilation(s string) (comp.Compilation, error) {
	fields := strings.Fields(s)
	if len(fields) < 2 {
		return comp.Compilation{}, fmt.Errorf("compilation %q: want 'compiler -Olevel [switches]'", s)
	}
	return comp.Compilation{
		Compiler: fields[0],
		OptLevel: fields[1],
		Switches: strings.Join(fields[2:], " "),
	}, nil
}

func renderBisect(eng *Engine, test string, variable comp.Compilation, k int, w io.Writer) error {
	wf := eng.Workflow()
	report, err := wf.BisectSharded(wf.TestByName(test), variable, k, eng.Shard())
	eng.NoteBisect(report)
	if err != nil {
		return err
	}
	if report.NoVariability {
		fmt.Fprintln(w, "no variability attributable to compiled files",
			"(it may come from the link step)")
		return nil
	}
	fmt.Fprintf(w, "executions: %d\n", report.Execs)
	for _, ff := range report.Files {
		fmt.Fprintf(w, "file %-22s magnitude %-12.4g symbols: %s\n", ff.File, ff.Value, ff.Status)
		for _, sf := range ff.Symbols {
			fmt.Fprintf(w, "    %-40s %.4g\n", sf.Item, sf.Value)
		}
	}
	return nil
}

// declareExperiments is the grammar of `experiments [name...|all]`. No
// name, or "all" alone, expands to every experiment marked inAll.
func declareExperiments(fs *flag.FlagSet) func() ([]string, Render, error) {
	return func() ([]string, Render, error) {
		names := fs.Args()
		if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
			names = nil
			for _, x := range experimentList {
				if x.inAll {
					names = append(names, x.name)
				}
			}
		}
		runs := make([]Render, len(names))
		for i, name := range names {
			for _, x := range experimentList {
				if x.name == name {
					runs[i] = x.run
				}
			}
			if runs[i] == nil {
				return nil, nil, fmt.Errorf("unknown experiment %q", name)
			}
		}
		return append([]string{"experiments"}, names...), func(eng *Engine, w io.Writer) error {
			for i, name := range names {
				fmt.Fprintf(w, "=== %s ===\n", name)
				if err := runs[i](eng, w); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				fmt.Fprintln(w)
			}
			return nil
		}, nil
	}
}

// experimentList is every experiment, in the order "all" runs those marked
// inAll. "all" already regenerates each full artifact, so it leaves out
// "table5-sample" (every 13th injection site) and "sweep" (the sampled
// digest of every subsystem the equivalence tests compare across -j).
var experimentList = []struct {
	name  string
	inAll bool
	run   Render
}{
	{"table1", true, section((*Engine).Table1, RenderTable1)},
	{"figure4", true, func(eng *Engine, w io.Writer) error {
		for _, ex := range []int{5, 9} {
			s, err := eng.Figure4(ex)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s: %d compilations\n", s.Example, len(s.Points))
			if s.HasEqual {
				fmt.Fprintf(w, "  fastest bitwise equal: %-40s speedup %.3f\n",
					s.FastestEqual.Comp, s.FastestEqual.Speedup)
			}
			if s.HasVariable {
				fmt.Fprintf(w, "  fastest variable:      %-40s speedup %.3f  variability %.3g\n",
					s.FastestVariable.Comp, s.FastestVariable.Speedup, s.FastestVariable.Error)
			}
		}
		return nil
	}},
	{"figure5", true, func(eng *Engine, w io.Writer) error {
		rows, err := eng.Figure5()
		if err != nil {
			return err
		}
		repro := 0
		fmt.Fprintf(w, "%-8s %-10s %-10s %-10s %-12s %s\n",
			"example", "g++", "clang++", "icpc", "variable", "fastest-reproducible")
		for _, r := range rows {
			bar := func(c string) string {
				if v, ok := r.EqualByCompiler[c]; ok {
					return fmt.Sprintf("%.3f", v)
				}
				return "-"
			}
			va := "-"
			if r.HasVariable {
				va = fmt.Sprintf("%.3f", r.FastestVariable)
			}
			if r.FastestIsReproducible {
				repro++
			}
			fmt.Fprintf(w, "%-8d %-10s %-10s %-10s %-12s %v\n", r.Example,
				bar(comp.GCC), bar(comp.Clang), bar(comp.ICPC), va, r.FastestIsReproducible)
		}
		fmt.Fprintf(w, "%d of 19 examples fastest with a bitwise-reproducible compilation (paper: 14)\n", repro)
		return nil
	}},
	{"figure6", true, func(eng *Engine, w io.Writer) error {
		rows, err := eng.Figure6()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %-14s %-12s %-12s %s\n", "example", "# variable/244", "min err", "median err", "max err")
		for _, r := range rows {
			if r.VariableComps == 0 {
				fmt.Fprintf(w, "%-8d %-14d (invariant)\n", r.Example, 0)
				continue
			}
			fmt.Fprintf(w, "%-8d %-14d %-12.3g %-12.3g %.3g\n",
				r.Example, r.VariableComps, r.MinErr, r.MedianErr, r.MaxErr)
		}
		return nil
	}},
	{"table3", true, func(_ *Engine, w io.Writer) error {
		fmt.Fprintf(w, "%-30s %-12s %s\n", "metric", "measured", "paper")
		for _, r := range Table3() {
			fmt.Fprintf(w, "%-30s %-12.5g %.6g\n", r.Metric, r.Measured, r.Paper)
		}
		return nil
	}},
	{"findings", true, func(eng *Engine, w io.Writer) error {
		fs, err := eng.Findings()
		if err != nil {
			return err
		}
		for _, f := range fs {
			fmt.Fprintf(w, "Example %d: max relative error %.3g, %d compilations examined\n",
				f.Example, f.MaxRelErr, len(f.Compilations))
			for _, fn := range f.Functions {
				fmt.Fprintf(w, "    %s\n", fn)
			}
		}
		return nil
	}},
	{"motivation", true, func(_ *Engine, w io.Writer) error {
		mo, err := RunMotivation()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "xlc++ -O2: energy norm %.1f, %.1f s\n", mo.NormO2, mo.SecondsO2)
		fmt.Fprintf(w, "xlc++ -O3: energy norm %.1f, %.1f s\n", mo.NormO3, mo.SecondsO3)
		fmt.Fprintf(w, "relative difference %.1f%% (paper: 11.2%%), speedup %.2fx (paper: 2.42x)\n",
			100*mo.RelDiff, mo.SpeedupFactor)
		return nil
	}},
	{"table4", true, section((*Engine).Table4, RenderTable4)},
	{"laghos-nan", true, func(eng *Engine, w io.Writer) error {
		res, err := eng.RunNaNBug()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "executions: %d (paper: 45)\nsymbols:\n", res.Execs)
		for _, s := range res.Symbols {
			fmt.Fprintf(w, "    %s\n", s)
		}
		return nil
	}},
	{"table2", true, func(eng *Engine, w io.Writer) error {
		rows, total, err := eng.Table2(0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "variable (test, compilation) pairs bisected: %d\n", total)
		fmt.Fprint(w, RenderTable2(rows))
		return nil
	}},
	{"table5", true, section(func(e *Engine) (inject.Summary, error) { return e.Table5(1) }, RenderTable5)},
	{"mpi", true, section(func(e *Engine) ([]MPIRow, error) { return e.MPIStudy(4, 3) }, RenderMPI)},
	{"table5-sample", false, section(func(e *Engine) (inject.Summary, error) { return e.Table5(13) }, RenderTable5)},
	{"sweep", false, section((*Engine).SweepDigest, func(digest string) string { return digest })},
}

// section is the experiment that prints the rendering of a computed value.
func section[T any](compute func(*Engine) (T, error), render func(T) string) Render {
	return func(eng *Engine, w io.Writer) error {
		v, err := compute(eng)
		if err == nil {
			fmt.Fprint(w, render(v))
		}
		return err
	}
}

// RunShard is the coordinator worker's unit of work: execute one shard of
// a recorded campaign command on a fresh engine and return the exported
// shard artifact as JSON. The artifact is deliberately NOT stamped — a
// stamp would embed wall-clock provenance, and the coordinator's
// last-writer-wins completion discipline depends on two workers producing
// byte-identical artifacts for the same shard. tiers (usually the
// coordinator's own object store, optionally fronted by a local disk
// cache) attach as the engine cache's persistent tiers, so a re-leased
// shard replays its predecessor's written-through results as warm hits.
func RunShard(command []string, shard exec.Shard, j int, tiers ...store.Store) ([]byte, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	eng := NewEngine(j)
	eng.SetShard(shard)
	eng.AttachStore(store.Tier(tiers...))
	if err := RunCommand(eng, command, io.Discard); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := eng.ExportArtifact(command).WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encoding shard artifact: %w", err)
	}
	return buf.Bytes(), nil
}
