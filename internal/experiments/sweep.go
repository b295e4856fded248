package experiments

import (
	"fmt"
	"strings"
)

// SweepDigest runs the experiments suite end to end on this engine — the
// MFEM matrix with Table 1 and Figures 5/6, the Table 2 bisect
// characterization (capped at sweepTable2Limit searches per compiler;
// `flit experiments table2` runs all of them), the Laghos case study
// (motivation, Table 4, NaN bug), and a sampled LULESH injection campaign —
// and renders everything into one digest string.
//
// The digest is the reproduction's end-to-end determinism witness: because
// every evaluation is a pure function of (compilation, test) and results
// are collected in submission order, engines of any parallelism, shard
// split, warm start or store tier return byte-identical strings. The
// equivalence tests assert exactly that.
func (e *Engine) SweepDigest() (string, error) {
	var b strings.Builder

	rows, err := e.Table1()
	if err != nil {
		return "", fmt.Errorf("table1: %w", err)
	}
	b.WriteString("== Table 1 ==\n")
	b.WriteString(RenderTable1(rows))

	fig5, err := e.Figure5()
	if err != nil {
		return "", fmt.Errorf("figure5: %w", err)
	}
	repro := 0
	for _, r := range fig5 {
		if r.FastestIsReproducible {
			repro++
		}
	}
	fmt.Fprintf(&b, "== Figure 5 ==\nfastest-reproducible: %d of 19\n", repro)

	fig6, err := e.Figure6()
	if err != nil {
		return "", fmt.Errorf("figure6: %w", err)
	}
	b.WriteString("== Figure 6 ==\n")
	for _, r := range fig6 {
		fmt.Fprintf(&b, "ex%02d variable=%d min=%.6g med=%.6g max=%.6g\n",
			r.Example, r.VariableComps, r.MinErr, r.MedianErr, r.MaxErr)
	}

	t2, total, err := e.Table2(sweepTable2Limit)
	if err != nil {
		return "", fmt.Errorf("table2: %w", err)
	}
	fmt.Fprintf(&b, "== Table 2 (first %d searches per compiler) ==\nvariable pairs: %d\n",
		sweepTable2Limit, total)
	b.WriteString(RenderTable2(t2))

	mo, err := RunMotivation()
	if err != nil {
		return "", fmt.Errorf("motivation: %w", err)
	}
	fmt.Fprintf(&b, "== Motivation ==\nrel-diff=%.6g speedup=%.6g\n",
		mo.RelDiff, mo.SpeedupFactor)

	t4, err := e.Table4()
	if err != nil {
		return "", fmt.Errorf("table4: %w", err)
	}
	b.WriteString("== Table 4 ==\n")
	b.WriteString(RenderTable4(t4))

	nan, err := e.RunNaNBug()
	if err != nil {
		return "", fmt.Errorf("nan bug: %w", err)
	}
	fmt.Fprintf(&b, "== NaN bug ==\nexecs=%d symbols=%v\n", nan.Execs, nan.Symbols)

	t5, err := e.Table5(sweepTable5Stride)
	if err != nil {
		return "", fmt.Errorf("table5: %w", err)
	}
	fmt.Fprintf(&b, "== Table 5 (sampled, stride %d) ==\n", sweepTable5Stride)
	b.WriteString(RenderTable5(t5))

	return b.String(), nil
}

// Sweep sampling knobs: enough work that every subsystem (matrix runner,
// file/symbol bisect, injection campaign) contributes materially, small
// enough that the equivalence test can afford to run the sweep twice under
// the race detector.
const (
	sweepTable2Limit  = 30
	sweepTable5Stride = 13
)
