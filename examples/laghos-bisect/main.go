// laghos-bisect reproduces the paper's Laghos case study (§1 and §3.4): the
// 11.2%/2.42x motivating incident, the automated re-discovery of the
// NaN-producing XOR-swap macro, and the digit-limited Bisect that isolates
// the exact q == 0.0 comparison — including the developers' epsilon fix.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/apps/laghos"
	"repro/internal/comp"
	"repro/internal/experiments"
	"repro/internal/link"
)

func main() {
	j := flag.Int("j", 0, "parallel evaluations (0 = one per CPU, 1 = sequential; "+
		"output is byte-identical at every -j — the speculative bisect engine "+
		"commits only what the sequential algorithm would have chosen)")
	flag.Parse()
	if err := run(os.Stdout, experiments.NewEngine(*j)); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, eng *experiments.Engine) error {
	// The motivating example: xlc++ -O2 -> -O3.
	mo, err := experiments.RunMotivation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Motivating incident (paper §1):")
	fmt.Fprintf(w, "  xlc++ -O2: energy norm %10.1f   runtime %5.1f s\n", mo.NormO2, mo.SecondsO2)
	fmt.Fprintf(w, "  xlc++ -O3: energy norm %10.1f   runtime %5.1f s\n", mo.NormO3, mo.SecondsO3)
	fmt.Fprintf(w, "  relative difference %.1f%% (paper: 11.2%%), speedup %.2fx (paper: 2.42x)\n\n",
		100*mo.RelDiff, mo.SpeedupFactor)

	// The public-branch NaN bug.
	nan, err := eng.RunNaNBug()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "NaN bug re-discovery: %d executions (paper: 45); symbols:\n", nan.Execs)
	for _, s := range nan.Symbols {
		fmt.Fprintf(w, "  -> %s\n", s)
	}

	// Table 4: digit-limited bisect against three baselines.
	fmt.Fprintln(w, "\nTable 4 — Bisect statistics (files/funcs/runs for k = 1, 2, all):")
	rows, err := eng.Table4()
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderTable4(rows))

	// The developers' fix restores agreement.
	fixed := laghos.Options{EpsilonFix: true}
	base, err := link.FullBuild(laghos.Program(), comp.Compilation{Compiler: comp.XLC, OptLevel: "-O2"})
	if err != nil {
		return err
	}
	o3, err := link.FullBuild(laghos.Program(), comp.Compilation{Compiler: comp.XLC, OptLevel: "-O3"})
	if err != nil {
		return err
	}
	mb, err := base.NewMachine()
	if err != nil {
		return err
	}
	m3, err := o3.NewMachine()
	if err != nil {
		return err
	}
	sb := laghos.Simulate(mb, fixed, 0.4)
	s3 := laghos.Simulate(m3, fixed, 0.4)
	nb := laghos.EnergyNorm(mb, sb.E)
	n3 := laghos.EnergyNorm(m3, s3.E)
	fmt.Fprintf(w, "\nwith the epsilon-comparison fix: norms %.6g vs %.6g (%.2g%% apart)\n",
		nb, n3, 100*abs(n3-nb)/nb)
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
