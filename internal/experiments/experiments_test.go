package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps/laghos"
	"repro/internal/bisect"
	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/inject"
)

// testEngine is shared by the package's shape tests, so the MFEM matrix is
// computed once per test binary.
var testEngine = NewEngine(0)

// table4TopFunction returns the single most-contributing function of the
// xlc++ -O3 divergence under a 3-digit comparison — the paper's root cause.
func table4TopFunction(e *Engine) (string, error) {
	s := &bisect.Search{
		Prog:     laghos.Program(),
		Test:     flit.WithCompare(laghos.NewCase(), flit.DigitL2Diff(3)),
		Baseline: comp.Compilation{Compiler: comp.XLC, OptLevel: "-O2"},
		Variable: comp.Compilation{Compiler: comp.XLC, OptLevel: "-O3"},
		K:        1,
		Pool:     e.Pool(),
		Cache:    e.Cache(),
	}
	report, err := s.Run()
	if err != nil {
		return "", err
	}
	syms := report.AllSymbols()
	if len(syms) == 0 {
		return "", fmt.Errorf("no function isolated")
	}
	return syms[0].Item, nil
}

func TestTable1Shape(t *testing.T) {
	rows, err := testEngine.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Compiler] = r
		if r.TotalRuns == 0 {
			t.Fatalf("%s: no runs", r.Compiler)
		}
		if r.Speedup <= 1.0 {
			t.Errorf("%s: best average speedup %.3f <= 1", r.Compiler, r.Speedup)
		}
		if r.BestFlags.OptLevel == "-O0" {
			t.Errorf("%s: best flags at -O0", r.Compiler)
		}
	}
	// The paper's ordering: icpc by far the most variable (49.8%), gcc
	// modest (6.0%), clang the most invariant (1.8%).
	icpcPct := float64(byName[comp.ICPC].VariableRuns) / float64(byName[comp.ICPC].TotalRuns)
	gccPct := float64(byName[comp.GCC].VariableRuns) / float64(byName[comp.GCC].TotalRuns)
	clangPct := float64(byName[comp.Clang].VariableRuns) / float64(byName[comp.Clang].TotalRuns)
	if !(icpcPct > 2*gccPct) {
		t.Errorf("icpc variability %.3f not dominant over gcc %.3f", icpcPct, gccPct)
	}
	if !(gccPct > clangPct) {
		t.Errorf("gcc variability %.3f not above clang %.3f", gccPct, clangPct)
	}
	if icpcPct < 0.15 || icpcPct > 0.85 {
		t.Errorf("icpc variability %.3f out of the paper's ballpark (~0.50)", icpcPct)
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "icpc") {
		t.Error("render missing icpc row")
	}
}

func TestFigure4BothPanels(t *testing.T) {
	for _, ex := range []int{5, 9} {
		s, err := testEngine.Figure4(ex)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Points) < 200 {
			t.Fatalf("example %d: only %d points", ex, len(s.Points))
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i-1].Speedup > s.Points[i].Speedup+1e-12 {
				t.Fatalf("example %d: points not sorted by speedup", ex)
			}
		}
		if !s.HasEqual || !s.HasVariable {
			t.Fatalf("example %d: missing callouts", ex)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	rows, err := testEngine.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("%d rows", len(rows))
	}
	repro := 0
	for _, r := range rows {
		if r.FastestIsReproducible {
			repro++
		}
	}
	// Paper: 14 of 19 examples have their fastest compilation bitwise
	// reproducible. Require a solid majority.
	if repro < 10 {
		t.Errorf("only %d/19 examples have reproducible fastest compilations (paper: 14)", repro)
	}
	// Examples 12 and 18 are invariant.
	for _, i := range []int{12, 18} {
		if rows[i-1].HasVariable {
			t.Errorf("invariant example %d shows variability", i)
		}
	}
	// The libm-bearing examples lose their icpc bitwise-equal bar to the
	// Intel link step.
	for _, i := range []int{4, 5, 9, 10, 15} {
		if _, ok := rows[i-1].EqualByCompiler[comp.ICPC]; ok {
			t.Errorf("example %d still has an icpc bitwise-equal bar", i)
		}
	}
	// Non-libm examples keep it.
	for _, i := range []int{1, 2, 12, 18} {
		if _, ok := rows[i-1].EqualByCompiler[comp.ICPC]; !ok {
			t.Errorf("example %d lost its icpc bitwise-equal bar", i)
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	rows, err := testEngine.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if rows[11].VariableComps != 0 || rows[17].VariableComps != 0 {
		t.Error("examples 12/18 should have zero variable compilations")
	}
	// Example 13's relative error reaches the ~180-200% territory.
	if rows[12].MaxErr < 0.5 {
		t.Errorf("example 13 max relative error %.3g; paper reports 1.83-1.97", rows[12].MaxErr)
	}
	for _, r := range rows {
		if r.VariableComps > 0 && !(r.MinErr <= r.MedianErr && r.MedianErr <= r.MaxErr) {
			t.Errorf("example %d spread out of order", r.Example)
		}
	}
}

func TestTable2Sampled(t *testing.T) {
	rows, totalVariable, err := testEngine.Table2(6)
	if err != nil {
		t.Fatal(err)
	}
	if totalVariable < 100 {
		t.Fatalf("only %d variable runs found in the matrix", totalVariable)
	}
	for _, r := range rows {
		if r.FileTotal == 0 {
			t.Fatalf("%s: no searches", r.Compiler)
		}
		if r.FileSuccess > r.FileTotal || r.SymbolSuccess > r.SymbolTotal {
			t.Fatalf("%s: inconsistent success counts %+v", r.Compiler, r)
		}
		if r.AvgExecs <= 2 || r.AvgExecs > 150 {
			t.Errorf("%s: avg executions %.1f implausible (paper: ~30)", r.Compiler, r.AvgExecs)
		}
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "File Bisect successes") {
		t.Error("render incomplete")
	}
}

func TestTable3(t *testing.T) {
	rows := Table3()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Measured <= 0 || r.Paper <= 0 {
			t.Fatalf("row %s not populated", r.Metric)
		}
	}
}

func TestFindings(t *testing.T) {
	fs, err := testEngine.Findings()
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("%d findings", len(fs))
	}
	f8, f13 := fs[0], fs[1]
	if f8.Example != 8 || f13.Example != 13 {
		t.Fatal("finding order wrong")
	}
	// Finding 1: several mat/vec functions blamed for example 8.
	if len(f8.Compilations) > 0 && len(f8.Functions) == 0 {
		t.Error("example 8 bisects found no functions")
	}
	// Finding 2: example 13's blame is the AddMult_a_AAt kernel alone.
	for _, fn := range f13.Functions {
		if fn != "DenseMatrix::AddMult_a_AAt" {
			t.Errorf("example 13 blamed %s; paper found only AddMult_a_AAt", fn)
		}
	}
	if f13.MaxRelErr < 0.5 {
		t.Errorf("example 13 max relative error %.3g too small", f13.MaxRelErr)
	}
}

func TestMotivation(t *testing.T) {
	mo, err := RunMotivation()
	if err != nil {
		t.Fatal(err)
	}
	if mo.RelDiff < 0.01 || mo.RelDiff > 0.6 {
		t.Errorf("energy norm moved %.3f; paper: 0.112", mo.RelDiff)
	}
	if mo.SpeedupFactor < 1.8 || mo.SpeedupFactor > 3.2 {
		t.Errorf("O2/O3 speedup factor %.2f; paper: 2.42", mo.SpeedupFactor)
	}
	if mo.SecondsO2 != 51.5 {
		t.Error("O2 runtime not scaled to the paper's 51.5s")
	}
	if mo.SecondsO3 >= mo.SecondsO2 {
		t.Error("-O3 not faster than -O2")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := testEngine.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 { // 3 baselines x 4 digit settings
		t.Fatalf("%d rows", len(rows))
	}
	culprit := "LagrangianHydroOperator::UpdateQuadratureData"
	for _, r := range rows {
		if r.Digits > 0 {
			// Digit-limited comparisons see only the big divergence:
			// k=1 must isolate exactly one file and one function.
			if r.Files[0] != 1 || r.Funcs[0] != 1 {
				t.Errorf("%s digits=%d k=1: %d files %d funcs (want 1/1)",
					r.Baseline, r.Digits, r.Files[0], r.Funcs[0])
			}
		}
		for ki := range r.Runs {
			if r.Runs[ki] <= 0 || r.Runs[ki] > 200 {
				t.Errorf("%s digits=%d: runs[%d]=%d out of range",
					r.Baseline, r.Digits, ki, r.Runs[ki])
			}
		}
		// Full precision sees at least as much as digit-limited.
		if r.Digits == 0 && (r.Files[2] < 1 || r.Funcs[2] < 1) {
			t.Errorf("full-precision all-k found nothing: %+v", r)
		}
	}
	// Verify the isolated function really is the culprit for one row.
	s, err := table4TopFunction(testEngine)
	if err != nil {
		t.Fatal(err)
	}
	if s != culprit {
		t.Errorf("top function = %s, want %s", s, culprit)
	}
	if out := RenderTable4(rows); !strings.Contains(out, "digits") {
		t.Error("render incomplete")
	}
}

func TestNaNBugRediscovery(t *testing.T) {
	res, err := testEngine.RunNaNBug()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, s := range res.Symbols {
		found[s] = true
	}
	if !found["TimeIntegrator::SwapLevels"] || !found["TimeIntegrator::RotateBuffers"] {
		t.Fatalf("NaN bug symbols not both found: %v", res.Symbols)
	}
	if res.Execs <= 0 || res.Execs > 150 {
		t.Errorf("NaN re-discovery used %d executions (paper: 45)", res.Execs)
	}
}

func TestTable5Sampled(t *testing.T) {
	sum, err := testEngine.Table5(29)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Counts[inject.Wrong] != 0 || sum.Counts[inject.Missed] != 0 {
		t.Fatalf("precision/recall violated: %v", sum.Counts)
	}
	if sum.Counts[inject.Exact] == 0 || sum.Counts[inject.Indirect] == 0 {
		t.Fatalf("sample missing exact or indirect finds: %v", sum.Counts)
	}
	if out := RenderTable5(sum); !strings.Contains(out, "exact finds") {
		t.Error("render incomplete")
	}
}

func TestMPIStudy(t *testing.T) {
	rows, err := testEngine.MPIStudy(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	checked := 0
	for _, r := range rows {
		if !r.Deterministic {
			t.Errorf("example %d: parallel run not deterministic", r.Example)
		}
		if !r.ParallelDiffers {
			t.Errorf("example %d: domain decomposition changed nothing", r.Example)
		}
		if r.Checked {
			checked++
			if !r.SameBlame {
				t.Errorf("example %d: parallel bisect found different blame", r.Example)
			}
		}
	}
	if checked == 0 {
		t.Error("no example had a variable compilation to bisect")
	}
	if out := RenderMPI(rows); !strings.Contains(out, "deterministic") {
		t.Error("render incomplete")
	}
}
