// mfem-study reproduces the paper's §3.1–§3.3 evaluation interactively: it
// runs the 19 mini-MFEM examples under all 244 compilations, prints the
// Table 1 compiler summary and the Figure 5 performance/reproducibility
// histogram, and then re-discovers Finding 2 (the AddMult_a_AAt kernel
// behind example 13's ~180% relative error) with FLiT Bisect.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/comp"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Stdout, experiments.NewEngine(0)); err != nil {
		log.Fatal(err)
	}
}

// run regenerates the study on one engine. Passing the engine explicitly
// is what makes the study shardable: a sharded engine computes its slice
// of the matrix, exports an artifact, and an artifact-seeded engine
// replays the identical output (see TestMFEMStudyShardMergeEquivalence).
func run(w io.Writer, eng *experiments.Engine) error {
	fmt.Fprintf(w, "running 19 examples x 244 compilations (4,636 results) with %d parallel evaluations...\n",
		eng.Pool().Workers())
	rows, err := eng.Table1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nTable 1 — compiler summary:")
	fmt.Fprint(w, experiments.RenderTable1(rows))

	fig5, err := eng.Figure5()
	if err != nil {
		return err
	}
	repro := 0
	for _, r := range fig5 {
		if r.FastestIsReproducible {
			repro++
		}
	}
	fmt.Fprintf(w, "\nFigure 5 — %d of 19 examples are fastest under a bitwise-reproducible compilation (paper: 14)\n", repro)

	fig6, err := eng.Figure6()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 6 — example 13 relative error up to %.2f (paper: 1.83–1.97)\n",
		fig6[12].MaxErr)

	// Finding 2: root-cause example 13 under an FMA-enabling compilation.
	wf := eng.Workflow()
	target := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O3", Switches: "-mavx2 -mfma"}
	fmt.Fprintf(w, "\nbisecting Example13 under %s ...\n", target)
	report, err := wf.Bisect(wf.TestByName("Example13"), target, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d program executions\n", report.Execs)
	for _, ff := range report.Files {
		fmt.Fprintf(w, "  %s:\n", ff.File)
		for _, sf := range ff.Symbols {
			fmt.Fprintf(w, "    -> %s (magnitude %.3g)\n", sf.Item, sf.Value)
		}
	}
	return nil
}
