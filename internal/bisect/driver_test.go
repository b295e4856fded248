package bisect

import (
	"math"
	"testing"

	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/link"
	"repro/internal/prog"
)

// driverProgram: three files, five exported symbols plus one internal.
// Alpha and Beta carry FP patterns the variable compilation rewrites;
// Gamma/Delta are pattern-free and can never vary.
func driverProgram() *prog.Program {
	p := prog.New("drivertest")
	p.AddFile("alpha.cpp",
		&prog.Symbol{Name: "Alpha", Exported: true, Work: 3, FPOps: 6,
			Features: prog.Features{Reduction: true, MulAdd: true}},
		&prog.Symbol{Name: "AlphaHelper", Exported: true, Work: 1, FPOps: 2,
			Features: prog.Features{ShortExpr: true, Division: true}},
	)
	p.AddFile("beta.cpp",
		&prog.Symbol{Name: "Beta", Exported: true, Work: 2, FPOps: 4,
			Features: prog.Features{Reduction: true, ShortExpr: true}},
	)
	p.AddFile("gamma.cpp",
		&prog.Symbol{Name: "Gamma", Exported: true, Work: 1, FPOps: 2},
		&prog.Symbol{Name: "Delta", Exported: true, Work: 1, FPOps: 1},
	)
	return p
}

// driverTest runs all five functions and reports a value vector.
type driverTest struct{}

func (driverTest) Name() string               { return "DriverTest" }
func (driverTest) Root() string               { return "Alpha" }
func (driverTest) GetInputsPerRun() int       { return 1 }
func (driverTest) GetDefaultInput() []float64 { return []float64{0.3} }

func (driverTest) Run(input []float64, m *link.Machine) (flit.Result, error) {
	p := m.Program()
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = math.Sin(input[0] + float64(i)*0.37)
		ys[i] = math.Cos(input[0] - float64(i)*0.11)
	}
	var out []float64

	envA, doneA := m.Fn(p.MustSymbol("Alpha"))
	out = append(out, envA.Dot(xs, ys))
	doneA()

	envAH, doneAH := m.Fn(p.MustSymbol("AlphaHelper"))
	out = append(out, envAH.Div(envAH.Sum3(xs[1], xs[2], xs[3]), 7.0))
	doneAH()

	envB, doneB := m.Fn(p.MustSymbol("Beta"))
	out = append(out, envB.Sum(ys))
	doneB()

	envG, doneG := m.Fn(p.MustSymbol("Gamma"))
	out = append(out, envG.Add(xs[0], ys[0]))
	doneG()

	envD, doneD := m.Fn(p.MustSymbol("Delta"))
	out = append(out, envD.Mul(xs[1], ys[1]))
	doneD()

	return flit.VecResult(out), nil
}

func (driverTest) Compare(a, b flit.Result) float64 { return flit.L2Diff(a, b) }

// bruteForceSymbols returns the exported symbols whose singleton override
// reproduces variability — the ground truth Symbol Bisect must find.
func bruteForceSymbols(t *testing.T, p *prog.Program, base, variable comp.Compilation, file string) map[string]bool {
	t.Helper()
	baseEx, err := link.FullBuild(p, base)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := flit.RunAll(driverTest{}, baseEx)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]bool{}
	for _, sym := range p.ExportedSymbols(file) {
		ex, err := link.Link(link.SymbolMixPlan(p, base, variable, []string{sym.Name}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := flit.RunAll(driverTest{}, ex)
		if err != nil {
			continue
		}
		if flit.L2Diff(baseRes, got) > 0 {
			truth[sym.Name] = true
		}
	}
	return truth
}

// variableCompilations finds gcc matrix compilations that actually perturb
// this program (gcc/gcc mixes cannot segfault, keeping the test focused).
func variableCompilations(t *testing.T, p *prog.Program) []comp.Compilation {
	t.Helper()
	s := &flit.Suite{Prog: p, Tests: []flit.TestCase{driverTest{}}, Baseline: comp.Baseline()}
	var gcc []comp.Compilation
	for _, c := range comp.Matrix() {
		if c.Compiler == comp.GCC {
			gcc = append(gcc, c)
		}
	}
	res, err := s.RunMatrix(gcc)
	if err != nil {
		t.Fatal(err)
	}
	var out []comp.Compilation
	for _, rr := range res.VariableRuns() {
		out = append(out, rr.Comp)
	}
	if len(out) == 0 {
		t.Fatal("no gcc compilation perturbs the driver program")
	}
	return out
}

func TestDriverFindsTrueBlameSet(t *testing.T) {
	p := driverProgram()
	vars := variableCompilations(t, p)
	checked := 0
	for _, vc := range vars {
		search := &Search{Prog: p, Test: driverTest{}, Baseline: comp.Baseline(), Variable: vc}
		report, err := search.Run()
		if err != nil {
			t.Fatalf("%s: %v", vc, err)
		}
		if report.NoVariability {
			t.Fatalf("%s: driver reported no variability for a variable compilation", vc)
		}
		if report.Execs <= 0 {
			t.Fatal("no executions counted")
		}
		for _, ff := range report.Files {
			if ff.Value <= 0 {
				t.Fatalf("%s: file %s finding with non-positive value", vc, ff.File)
			}
			if ff.File == "gamma.cpp" {
				t.Fatalf("%s: pattern-free file blamed", vc)
			}
			if ff.Status != SymbolsFound {
				continue // fpic-removed or crashed: nothing to verify below file level
			}
			truth := bruteForceSymbols(t, p, comp.Baseline(), vc, ff.File)
			got := map[string]bool{}
			for _, sf := range ff.Symbols {
				got[sf.Item] = true
				if !truth[sf.Item] {
					t.Fatalf("%s: false positive symbol %s in %s", vc, sf.Item, ff.File)
				}
			}
			for want := range truth {
				if !got[want] {
					t.Fatalf("%s: missed symbol %s in %s (got %v)", vc, want, ff.File, ff.Symbols)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no symbol-level search completed; gates may be mistuned")
	}
}

func TestDriverBiggestK1(t *testing.T) {
	p := driverProgram()
	vars := variableCompilations(t, p)
	vc := vars[len(vars)-1]
	full := &Search{Prog: p, Test: driverTest{}, Baseline: comp.Baseline(), Variable: vc}
	fullReport, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	top := &Search{Prog: p, Test: driverTest{}, Baseline: comp.Baseline(), Variable: vc, K: 1}
	topReport, err := top.Run()
	if err != nil {
		t.Fatal(err)
	}
	fullSyms := fullReport.AllSymbols()
	topSyms := topReport.AllSymbols()
	if len(fullSyms) > 0 {
		if len(topSyms) == 0 {
			t.Fatal("Biggest(1) found nothing though All found symbols")
		}
		if topSyms[0].Item != fullSyms[0].Item {
			t.Fatalf("Biggest(1) top = %s, All top = %s", topSyms[0].Item, fullSyms[0].Item)
		}
	}
}

func TestDriverOnBitwiseEqualCompilation(t *testing.T) {
	p := driverProgram()
	// Plain g++ -O2 is value-safe: no variability to find.
	search := &Search{Prog: p, Test: driverTest{},
		Baseline: comp.Baseline(),
		Variable: comp.Compilation{Compiler: comp.GCC, OptLevel: "-O2"}}
	report, err := search.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.NoVariability || len(report.Files) != 0 {
		t.Fatalf("expected clean report, got %+v", report)
	}
}

func TestDriverExecutionBudget(t *testing.T) {
	p := driverProgram()
	vars := variableCompilations(t, p)
	for _, vc := range vars {
		search := &Search{Prog: p, Test: driverTest{}, Baseline: comp.Baseline(), Variable: vc}
		report, err := search.Run()
		if err != nil {
			t.Fatal(err)
		}
		// 3 files, <=2 symbols per file: tens of runs at most (paper: ~30
		// average on a 97-file program).
		if report.Execs > 40 {
			t.Fatalf("%s: %d executions for a 3-file program", vc, report.Execs)
		}
	}
}

func TestSymbolStatusString(t *testing.T) {
	statuses := []SymbolStatus{SymbolsFound, SymbolsCrashed, FPICRemoved,
		NoExportedSymbols, SymbolsSkipped, SymbolsAssumption, SymbolStatus(99)}
	seen := map[string]bool{}
	for _, st := range statuses {
		s := st.String()
		if s == "" || seen[s] {
			t.Fatalf("status %d has empty or duplicate string %q", st, s)
		}
		seen[s] = true
	}
}
