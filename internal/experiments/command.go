package experiments

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/store"
)

// This file is the programmatic form of the CLI's subcommands: every
// renderer plus RunCommand, the one entry point through which `flit run`,
// `flit bisect`, `flit experiments`, `flit merge` and the campaign
// coordinator's workers all execute a canonical command. It lives here
// rather than in cmd/flit so that a worker process can execute a recorded
// campaign command — the exact []string a shard artifact or a coordinator
// grant carries — without shelling out to its own binary.

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

// lookupTest resolves a test name of the MFEM suite, the check `flit run
// -test` and `flit bisect -test` share.
func lookupTest(wf *core.Workflow, test string) (flit.TestCase, error) {
	if tc := wf.TestByName(test); tc != nil {
		return tc, nil
	}
	return nil, fmt.Errorf("unknown test %q (Example01..Example19)", test)
}

// RenderRun writes the `flit run` compilation-matrix table, optionally
// restricted to one test.
func RenderRun(eng *Engine, test string, w io.Writer) error {
	if test != "" {
		if _, err := lookupTest(eng.Workflow(), test); err != nil {
			return err
		}
	}
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

// RenderBisect writes one `flit bisect` report, sharded when the engine is.
func RenderBisect(eng *Engine, test string, variable comp.Compilation,
	k int, shard exec.Shard, w io.Writer) error {
	wf := eng.Workflow()
	tc, err := lookupTest(wf, test)
	if err != nil {
		return err
	}
	report, err := wf.BisectSharded(tc, variable, k, shard)
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

// RenderExperiments writes a sequence of named experiment sections.
func RenderExperiments(eng *Engine, names []string, w io.Writer) error {
	for _, name := range names {
		fmt.Fprintf(w, "=== %s ===\n", name)
		if err := RunExperiment(eng, name, w); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunExperiment writes one named experiment's output — the CLI's
// `flit experiments <name>` body.
func RunExperiment(eng *Engine, name string, w io.Writer) error {
	switch name {
	case "table1":
		rows, err := eng.Table1()
		if err != nil {
			return err
		}
		fmt.Fprint(w, RenderTable1(rows))
	case "figure4":
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
	case "figure5":
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
	case "figure6":
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
	case "table2":
		rows, total, err := eng.Table2(0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "variable (test, compilation) pairs bisected: %d\n", total)
		fmt.Fprint(w, RenderTable2(rows))
	case "table3":
		fmt.Fprintf(w, "%-30s %-12s %s\n", "metric", "measured", "paper")
		for _, r := range Table3() {
			fmt.Fprintf(w, "%-30s %-12.5g %.6g\n", r.Metric, r.Measured, r.Paper)
		}
	case "findings":
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
	case "motivation":
		mo, err := RunMotivation()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "xlc++ -O2: energy norm %.1f, %.1f s\n", mo.NormO2, mo.SecondsO2)
		fmt.Fprintf(w, "xlc++ -O3: energy norm %.1f, %.1f s\n", mo.NormO3, mo.SecondsO3)
		fmt.Fprintf(w, "relative difference %.1f%% (paper: 11.2%%), speedup %.2fx (paper: 2.42x)\n",
			100*mo.RelDiff, mo.SpeedupFactor)
	case "table4":
		rows, err := eng.Table4()
		if err != nil {
			return err
		}
		fmt.Fprint(w, RenderTable4(rows))
	case "laghos-nan":
		res, err := eng.RunNaNBug()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "executions: %d (paper: 45)\nsymbols:\n", res.Execs)
		for _, s := range res.Symbols {
			fmt.Fprintf(w, "    %s\n", s)
		}
	case "table5":
		sum, err := eng.Table5(1)
		if err != nil {
			return err
		}
		fmt.Fprint(w, RenderTable5(sum))
	case "table5-sample":
		sum, err := eng.Table5(13)
		if err != nil {
			return err
		}
		fmt.Fprint(w, RenderTable5(sum))
	case "mpi":
		rows, err := eng.MPIStudy(4, 3)
		if err != nil {
			return err
		}
		fmt.Fprint(w, RenderMPI(rows))
	case "sweep":
		digest, err := eng.SweepDigest()
		if err != nil {
			return err
		}
		fmt.Fprint(w, digest)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// RunCommand runs a canonical command — the []string a shard artifact
// records and a coordinator grant carries — against eng, writing the
// command's normal output to w. The engine's own shard setting applies, so
// the same entry point serves live CLI runs and merge replays (unsharded)
// and shard runs and coordinator workers (sharded).
func RunCommand(eng *Engine, command []string, w io.Writer) error {
	if len(command) == 0 {
		return errors.New("no command to run")
	}
	rest := command[1:]
	switch command[0] {
	case "run":
		fs := flag.NewFlagSet("replay/run", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		test := fs.String("test", "", "")
		if err := fs.Parse(rest); err != nil {
			return fmt.Errorf("replaying %q: %v", command, err)
		}
		return RenderRun(eng, *test, w)
	case "bisect":
		fs := flag.NewFlagSet("replay/bisect", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		test := fs.String("test", "", "")
		compStr := fs.String("comp", "", "")
		k := fs.Int("k", 0, "")
		if err := fs.Parse(rest); err != nil {
			return fmt.Errorf("replaying %q: %v", command, err)
		}
		variable, err := ParseCompilation(*compStr)
		if err != nil {
			return err
		}
		return RenderBisect(eng, *test, variable, *k, eng.Shard(), w)
	case "experiments":
		return RenderExperiments(eng, rest, w)
	default:
		return fmt.Errorf("unknown command %q", command[0])
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
	eng.AttachStoreTiers(tiers...)
	if err := RunCommand(eng, command, io.Discard); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := eng.ExportArtifact(command).WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("encoding shard artifact: %w", err)
	}
	return buf.Bytes(), nil
}
