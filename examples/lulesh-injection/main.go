// lulesh-injection reproduces the paper's §3.5 controlled-injection study
// on a sampled site set: plant x OP' ε perturbations at static FP
// instructions of the mini-LULESH proxy, ask FLiT Bisect to find them, and
// score precision/recall. Run `flit experiments table5` for the full
// 4,376-run campaign.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/apps/lulesh"
	"repro/internal/experiments"
	"repro/internal/fp"
	"repro/internal/inject"
)

func main() {
	if err := run(os.Stdout, experiments.NewEngine(0)); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, eng *experiments.Engine) error {
	sites := inject.EnumerateSites(lulesh.Program())
	fmt.Fprintf(w, "enumerated %d injection sites (paper: 1,094); %d total runs with 4 OP' each\n",
		len(sites), len(sites)*4)

	// A couple of illustrative single injections first.
	study := eng.LULESHStudy()
	for _, probe := range []struct {
		site inject.Site
		op   fp.InjectOp
	}{
		{inject.Site{Symbol: "CalcAccelerationForNodes", OpIndex: 2}, fp.InjMul},
		{inject.Site{Symbol: "CalcEnergyForElems", OpIndex: 5}, fp.InjAdd},
		{inject.Site{Symbol: "CalcElemNodeNormals", OpIndex: 0}, fp.InjDiv},
	} {
		rep := study.RunOne(probe.site, probe.op)
		if rep.Err != nil {
			return rep.Err
		}
		fmt.Fprintf(w, "  inject %c at %s op%d: %s (execs %d, found %v)\n",
			byte(probe.op), probe.site.Symbol, probe.site.OpIndex,
			rep.Outcome, rep.Execs, rep.Found)
	}

	// Sampled campaign: every 7th site x 4 operations.
	fmt.Fprintln(w, "\nsampled campaign (every 7th site):")
	sum, err := eng.Table5(7)
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderTable5(sum))
	return nil
}
