package laghos

import (
	"math"
	"testing"

	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/link"
)

func machineFor(t *testing.T, c comp.Compilation) *link.Machine {
	t.Helper()
	ex, err := link.FullBuild(Program(), c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ex.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	gccO2 = comp.Compilation{Compiler: comp.GCC, OptLevel: "-O2"}
	xlcO2 = comp.Compilation{Compiler: comp.XLC, OptLevel: "-O2"}
	xlcO3 = comp.Compilation{Compiler: comp.XLC, OptLevel: "-O3"}
)

func TestProgramValid(t *testing.T) {
	p := Program()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Symbols() {
		for _, c := range s.Callees {
			if p.Symbol(c) == nil {
				t.Errorf("symbol %s lists unknown callee %s", s.Name, c)
			}
		}
	}
	culprit := p.Symbol("LagrangianHydroOperator::UpdateQuadratureData")
	if culprit == nil || !culprit.Exported {
		t.Fatal("culprit symbol missing or not exported")
	}
}

func TestSimulationPhysicalSanity(t *testing.T) {
	m := machineFor(t, gccO2)
	st := Simulate(m, Options{}, 0.4)
	if len(st.E) != 32 || len(st.X) != 33 {
		t.Fatalf("unexpected sizes: %d cells, %d nodes", len(st.E), len(st.X))
	}
	for i, e := range st.E {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("energy[%d] = %g", i, e)
		}
	}
	// The shock must have moved energy around: not all cells equal.
	if st.E[0] == st.E[31] {
		t.Fatal("no dynamics happened")
	}
	// Nodes stay ordered (no mesh tangling at these step counts).
	for i := 1; i < len(st.X); i++ {
		if st.X[i] <= st.X[i-1] {
			t.Fatalf("mesh tangled at node %d", i)
		}
	}
	vol := Volume(m, st)
	if vol <= 0.9 {
		t.Fatalf("domain volume %g collapsed", vol)
	}
}

func TestDeterminism(t *testing.T) {
	m1 := machineFor(t, gccO2)
	m2 := machineFor(t, gccO2)
	a := Simulate(m1, Options{}, 0.4)
	b := Simulate(m2, Options{}, 0.4)
	for i := range a.E {
		if a.E[i] != b.E[i] {
			t.Fatalf("non-deterministic energy at %d", i)
		}
	}
}

func TestTrustedCompilationsAgree(t *testing.T) {
	// The developers trusted g++ -O2 and xlc++ -O2: both must produce the
	// baseline answer bitwise.
	base := machineFor(t, comp.Baseline())
	want := Simulate(base, Options{}, 0.4)
	for _, c := range []comp.Compilation{gccO2, xlcO2} {
		m := machineFor(t, c)
		got := Simulate(m, Options{}, 0.4)
		for i := range want.E {
			if got.E[i] != want.E[i] {
				t.Fatalf("%s deviates at cell %d: %g vs %g", c, i, got.E[i], want.E[i])
			}
		}
	}
	// xlc++ -O3 -qstrict=vectorprecision keeps FMA contraction, so it may
	// differ in ulps — but never at the percent level: it is a trusted
	// baseline in Table 4.
	strictQ := comp.Compilation{Compiler: comp.XLC, OptLevel: "-O3",
		Switches: "-qstrict=vectorprecision"}
	got := Simulate(machineFor(t, strictQ), Options{}, 0.4)
	var dn, bn float64
	for i := range want.E {
		d := got.E[i] - want.E[i]
		dn += d * d
		bn += want.E[i] * want.E[i]
	}
	if rel := math.Sqrt(dn) / math.Sqrt(bn); rel > 1e-9 {
		t.Fatalf("xlc -O3 -qstrict deviates by %.3g (want ulp-level only)", rel)
	}
}

func TestXlcO3DivergesSignificantly(t *testing.T) {
	base := machineFor(t, xlcO2)
	opt := Options{}
	want := Simulate(base, opt, 0.4)
	m := machineFor(t, xlcO3)
	got := Simulate(m, opt, 0.4)
	bn := EnergyNorm(base, want.E)
	gn := EnergyNorm(m, got.E)
	rel := math.Abs(gn-bn) / bn
	// The motivating example: an 11.2% relative difference in the energy
	// norm from -O2 to -O3 alone. Accept the same order of magnitude.
	if rel < 0.01 {
		t.Fatalf("xlc -O3 energy norm moved only %.3g%% (want percents)", rel*100)
	}
	if rel > 0.60 {
		t.Fatalf("xlc -O3 energy norm moved %.3g%%: unphysically far", rel*100)
	}
}

func TestEpsilonFixRestoresAgreement(t *testing.T) {
	opt := Options{EpsilonFix: true}
	base := Simulate(machineFor(t, xlcO2), opt, 0.4)
	fixed := Simulate(machineFor(t, xlcO3), opt, 0.4)
	bn, fn := 0.0, 0.0
	for i := range base.E {
		d := base.E[i] - fixed.E[i]
		bn += base.E[i] * base.E[i]
		fn += d * d
	}
	rel := math.Sqrt(fn) / math.Sqrt(bn)
	// "Changing this to an epsilon based comparison gave results close to
	// the trusted results, even under xlc++ -O3."
	if rel > 1e-4 {
		t.Fatalf("epsilon fix still %.3g%% off", rel*100)
	}
	// And the fix must actually matter: without it the gap is percents.
	broken := Simulate(machineFor(t, xlcO3), Options{}, 0.4)
	var dn float64
	for i := range base.E {
		d := base.E[i] - broken.E[i]
		dn += d * d
	}
	if math.Sqrt(dn)/math.Sqrt(bn) < rel {
		t.Fatal("epsilon fix did not improve agreement")
	}
}

func TestNaNBugPoisonsOnlyXlc(t *testing.T) {
	opt := Options{NaNBug: true}
	gcc := Simulate(machineFor(t, gccO2), opt, 0.4)
	for _, e := range gcc.E {
		if math.IsNaN(e) {
			t.Fatal("NaN bug fired under g++")
		}
	}
	xlc := Simulate(machineFor(t, xlcO2), opt, 0.4)
	sawNaN := false
	for _, e := range xlc.E {
		if math.IsNaN(e) {
			sawNaN = true
		}
	}
	if !sawNaN {
		t.Fatal("NaN bug did not fire under xlc++")
	}
}

func TestCaseProtocol(t *testing.T) {
	c := NewCase()
	if c.Name() != "Laghos" || c.Root() != "main_laghos" {
		t.Fatalf("case identity wrong: %s/%s", c.Name(), c.Root())
	}
	if (&Case{Opt: Options{NaNBug: true}}).Name() != "LaghosNaNBug" {
		t.Fatal("NaN case name wrong")
	}
	if (&Case{Opt: Options{EpsilonFix: true}}).Name() != "LaghosEpsFix" {
		t.Fatal("eps case name wrong")
	}
	ex, err := link.FullBuild(Program(), gccO2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := flit.RunAll(c, ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Vec) != 34 { // 32 cells + norm + volume
		t.Fatalf("result has %d values", len(r.Vec))
	}
	if c.Compare(r, r) != 0 {
		t.Fatal("self-compare nonzero")
	}
}

func TestDigitLimitedCompareHidesSmallNoise(t *testing.T) {
	// Digit-limited comparison (Table 4) must see the big q-branch
	// divergence but ignore sub-digit reduction noise.
	c := NewCase()
	baseEx, _ := link.FullBuild(Program(), xlcO2)
	base, err := flit.RunAll(c, baseEx)
	if err != nil {
		t.Fatal(err)
	}
	varEx, _ := link.FullBuild(Program(), xlcO3)
	got, err := flit.RunAll(c, varEx)
	if err != nil {
		t.Fatal(err)
	}
	full := flit.L2Diff(base, got)
	d2 := flit.DigitL2Diff(2)(base, got)
	if full == 0 {
		t.Fatal("xlc O3 did not deviate")
	}
	if d2 == 0 {
		t.Fatal("2-digit compare missed a percent-level divergence")
	}
}
