package mfem

import (
	"math"
	"testing"

	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/link"
)

// baseMachine returns a machine for the g++ -O0 trusted build.
func baseMachine(t *testing.T) *link.Machine {
	t.Helper()
	ex, err := link.FullBuild(Program(), comp.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	m, err := ex.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProgramValid(t *testing.T) {
	p := Program()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p != Program() {
		t.Fatal("Program() is not a singleton")
	}
	st := p.Stats()
	if st.SourceFiles < 25 {
		t.Fatalf("only %d source files", st.SourceFiles)
	}
	if st.TotalFunctions < 60 {
		t.Fatalf("only %d functions", st.TotalFunctions)
	}
	// Every callee reference must resolve (no typos in the registry).
	for _, s := range p.Symbols() {
		for _, c := range s.Callees {
			if p.Symbol(c) == nil {
				t.Errorf("symbol %s lists unknown callee %s", s.Name, c)
			}
		}
	}
}

func TestExampleCalleesReachable(t *testing.T) {
	p := Program()
	for i := 1; i <= 19; i++ {
		r := p.Reachable(exampleSymbol(i))
		if len(r) < 2 && i != 12 && i != 18 {
			t.Errorf("example %d reaches only %d symbols", i, len(r))
		}
	}
}

func TestVectorKernels(t *testing.T) {
	m := baseMachine(t)
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := Dot(m, x, y); got != 32 {
		t.Fatalf("Dot = %g", got)
	}
	if got := Norml2(m, []float64{3, 4}); got != 5 {
		t.Fatalf("Norml2 = %g", got)
	}
	if got := Sum(m, x); got != 6 {
		t.Fatalf("Sum = %g", got)
	}
	dst := make([]float64, 3)
	Add(m, dst, x, y)
	if dst[2] != 9 {
		t.Fatalf("Add wrong: %v", dst)
	}
	Subtract(m, dst, y, x)
	if dst[0] != 3 {
		t.Fatalf("Subtract wrong: %v", dst)
	}
	Scale(m, 2, dst)
	if dst[0] != 6 {
		t.Fatalf("Scale wrong: %v", dst)
	}
	z := []float64{1, 1, 1}
	Axpy(m, 2, x, z)
	if z[2] != 7 {
		t.Fatalf("Axpy wrong: %v", z)
	}
	v := []float64{3, 4}
	n := Normalize(m, v)
	if n != 5 || math.Abs(v[0]-0.6) > 1e-15 {
		t.Fatalf("Normalize: n=%g v=%v", n, v)
	}
	zero := []float64{0, 0}
	if Normalize(m, zero) != 0 {
		t.Fatal("Normalize(0) should return 0")
	}
	if got := DistanceTo(m, x, y); math.Abs(got-math.Sqrt(27)) > 1e-14 {
		t.Fatalf("DistanceTo = %g", got)
	}
	if got := Max(m, []float64{2, 9, 4}); got != 9 {
		t.Fatalf("Max = %g", got)
	}
	if got := Max(m, nil); got != 0 {
		t.Fatalf("Max(nil) = %g", got)
	}
	if m.Depth() != 0 {
		t.Fatalf("machine stack leaked: depth %d", m.Depth())
	}
}

func TestDenseKernels(t *testing.T) {
	m := baseMachine(t)
	d := NewDense(2, 2)
	d.Set(0, 0, 1)
	d.Set(0, 1, 2)
	d.Set(1, 0, 3)
	d.Set(1, 1, 4)
	y := make([]float64, 2)
	DenseMult(m, d, []float64{1, 1}, y)
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("DenseMult = %v", y)
	}
	DenseMultTranspose(m, d, []float64{1, 1}, y)
	if y[0] != 4 || y[1] != 6 {
		t.Fatalf("DenseMultTranspose = %v", y)
	}
	if got := Det2(m, d); got != -2 {
		t.Fatalf("Det2 = %g", got)
	}
	if got := Trace(m, d); got != 5 {
		t.Fatalf("Trace = %g", got)
	}
	if got := FNorm(m, d); math.Abs(got-math.Sqrt(30)) > 1e-14 {
		t.Fatalf("FNorm = %g", got)
	}
	// M += a·A·Aᵀ with A = d: A·Aᵀ = [[5,11],[11,25]].
	mm := NewDense(2, 2)
	AddMultAAt(m, 2, d, mm)
	if mm.At(0, 0) != 10 || mm.At(0, 1) != 22 || mm.At(1, 1) != 50 {
		t.Fatalf("AddMultAAt = %+v", mm.A)
	}
	inv := NewDense(2, 2)
	inv.Set(0, 0, 4)
	inv.Set(0, 1, 7)
	inv.Set(1, 0, 2)
	inv.Set(1, 1, 6)
	det := Invert2x2(m, inv)
	if det != 10 {
		t.Fatalf("Invert2x2 det = %g", det)
	}
	if math.Abs(inv.At(0, 0)-0.6) > 1e-15 || math.Abs(inv.At(0, 1)+0.7) > 1e-15 {
		t.Fatalf("Invert2x2 wrong: %+v", inv.A)
	}
	l := NewDense(2, 2)
	l.Set(0, 0, 2)
	l.Set(1, 0, 1)
	l.Set(1, 1, 4)
	b := []float64{4, 10}
	LSolve(m, l, b)
	if b[0] != 2 || b[1] != 2 {
		t.Fatalf("LSolve = %v", b)
	}
}

func TestSparseKernels(t *testing.T) {
	m := baseMachine(t)
	// [[2,-1,0],[-1,2,-1],[0,-1,2]]
	a := &CSR{N: 3,
		RowPtr: []int{0, 2, 5, 7},
		Col:    []int{0, 1, 0, 1, 2, 1, 2},
		Val:    []float64{2, -1, -1, 2, -1, -1, 2},
	}
	y := make([]float64, 3)
	SpMult(m, a, []float64{1, 2, 3}, y)
	if y[0] != 0 || y[1] != 0 || y[2] != 4 {
		t.Fatalf("SpMult = %v", y)
	}
	SpAddMult(m, 2, a, []float64{1, 2, 3}, y)
	if y[2] != 12 {
		t.Fatalf("SpAddMult = %v", y)
	}
	d := make([]float64, 3)
	SpGetDiag(m, a, d)
	if d[0] != 2 || d[1] != 2 || d[2] != 2 {
		t.Fatalf("SpGetDiag = %v", d)
	}
	if got := SpInnerProduct(m, a, []float64{1, 0, 0}, []float64{1, 0, 0}); got != 2 {
		t.Fatalf("SpInnerProduct = %g", got)
	}
	// Jacobi and Gauss-Seidel reduce the residual of A x = b.
	b := []float64{1, 1, 1}
	x := make([]float64, 3)
	for i := 0; i < 120; i++ {
		JacobiSmooth(m, a, b, x, 0.8)
	}
	r := make([]float64, 3)
	SpMult(m, a, x, r)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-9 {
			t.Fatalf("Jacobi did not converge: r=%v", r)
		}
	}
	x2 := make([]float64, 3)
	for i := 0; i < 40; i++ {
		GaussSeidel(m, a, b, x2)
	}
	SpMult(m, a, x2, r)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-9 {
			t.Fatalf("Gauss-Seidel did not converge: r=%v", r)
		}
	}
}

func TestMeshAndTransforms(t *testing.T) {
	m := baseMachine(t)
	mesh := MakeCartesian1D(m, 4, 2)
	if len(mesh.X) != 5 || mesh.X[0] != 0 || mesh.X[4] != 2 {
		t.Fatalf("mesh nodes: %v", mesh.X)
	}
	if got := ElementSize1D(m, mesh, 1); got != 0.5 {
		t.Fatalf("ElementSize1D = %g", got)
	}
	if got := IsoMap1D(m, mesh, 0, 0.5); got != 0.25 {
		t.Fatalf("IsoMap1D = %g", got)
	}
	if got := IsoWeight1D(m, mesh, 0); got != 0.5 {
		t.Fatalf("IsoWeight1D = %g", got)
	}
	m2 := MakeCartesian2D(m, 2, 2, 1, 1)
	if m2.NumNodes() != 9 {
		t.Fatalf("NumNodes = %d", m2.NumNodes())
	}
	nd := m2.ElemNodes(1, 1)
	if nd != [4]int{4, 5, 8, 7} {
		t.Fatalf("ElemNodes = %v", nd)
	}
	px, py := IsoMap2D(m, m2, 0, 0, 0.5, 0.5)
	if math.Abs(px-0.25) > 1e-15 || math.Abs(py-0.25) > 1e-15 {
		t.Fatalf("IsoMap2D = (%g,%g)", px, py)
	}
	if got := IsoWeight2D(m, m2, 0, 0); math.Abs(got-0.25) > 1e-15 {
		t.Fatalf("IsoWeight2D = %g", got)
	}
	before := append([]float64(nil), mesh.X...)
	PerturbNodes1D(m, mesh, 0.1)
	if mesh.X[0] != before[0] || mesh.X[4] != before[4] {
		t.Fatal("PerturbNodes moved boundary nodes")
	}
	// Node 1 sits at x=0.5 where the x(1-x) bump is nonzero (node 2 is at
	// x=1.0, a root of the bump on this [0,2] mesh).
	if mesh.X[1] == before[1] {
		t.Fatal("PerturbNodes did not move interior nodes")
	}
}

func TestShapesPartitionOfUnity(t *testing.T) {
	m := baseMachine(t)
	for _, x := range []float64{0, 0.25, 0.5, 1} {
		n0, n1 := Shape1D(m, x)
		if math.Abs(n0+n1-1) > 1e-15 {
			t.Fatalf("1D shapes at %g sum to %g", x, n0+n1)
		}
		for _, y := range []float64{0, 0.3, 1} {
			sh := Shape2D(m, x, y)
			s := sh[0] + sh[1] + sh[2] + sh[3]
			if math.Abs(s-1) > 1e-15 {
				t.Fatalf("2D shapes at (%g,%g) sum to %g", x, y, s)
			}
		}
	}
	// Gradients sum to zero (partition of unity differentiated).
	ds := DShape2D(m, 0.3, 0.7)
	var gx, gy float64
	for k := 0; k < 4; k++ {
		gx += ds[k][0]
		gy += ds[k][1]
	}
	if math.Abs(gx) > 1e-15 || math.Abs(gy) > 1e-15 {
		t.Fatalf("gradient sums: %g %g", gx, gy)
	}
}

func TestQuadratureExactness(t *testing.T) {
	m := baseMachine(t)
	// Gauss2 integrates cubics exactly on [0,1]: ∫x³ = 1/4.
	pts, wts := Gauss2(m)
	var s float64
	for q := range pts {
		s += wts[q] * pts[q] * pts[q] * pts[q]
	}
	if math.Abs(s-0.25) > 1e-14 {
		t.Fatalf("Gauss2 ∫x³ = %g", s)
	}
	// Gauss3 integrates x⁵ exactly: 1/6.
	p3, w3 := Gauss3(m)
	s = 0
	for q := range p3 {
		s += w3[q] * math.Pow(p3[q], 5)
	}
	if math.Abs(s-1.0/6) > 1e-14 {
		t.Fatalf("Gauss3 ∫x⁵ = %g", s)
	}
}

func TestMassMatrixRowSums(t *testing.T) {
	// Row sums of the 1-D mass matrix with c=1 integrate the hats:
	// total sum equals the domain length.
	m := baseMachine(t)
	mesh := MakeCartesian1D(m, 8, 1)
	mass := AssembleMass1D(m, mesh, One1D)
	var total float64
	for _, v := range mass.Val {
		total += v
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("mass entries sum to %g, want 1", total)
	}
}

func TestPoisson1DAgainstExact(t *testing.T) {
	// -u'' = 1, u(0)=u(1)=0 has u(x) = x(1-x)/2; nodal FE values are exact
	// for piecewise-linear elements on this problem.
	m := baseMachine(t)
	mesh := MakeCartesian1D(m, 16, 1)
	k := AssembleDiffusion1D(m, mesh, One1D)
	b := AssembleRHS1D(m, mesh, One1D)
	u := make([]float64, mesh.N+1)
	it := CGSolve(m, k, b, u, 1e-12, 200)
	if it == 0 {
		t.Fatal("CG did no iterations")
	}
	for i, x := range mesh.X {
		exact := x * (1 - x) / 2
		if math.Abs(u[i]-exact) > 1e-9 {
			t.Fatalf("u(%g) = %g, want %g", x, u[i], exact)
		}
	}
}

func TestPoisson2DSymmetryAndConvergence(t *testing.T) {
	m := baseMachine(t)
	mesh := MakeCartesian2D(m, 6, 6, 1, 1)
	k := AssembleDiffusion2D(m, mesh, One2D)
	b := AssembleRHS2D(m, mesh, One2D)
	u := make([]float64, mesh.NumNodes())
	CGSolve(m, k, b, u, 1e-11, 300)
	// Residual actually small.
	r := make([]float64, len(u))
	SpMult(m, k, u, r)
	for i := range r {
		if math.Abs(r[i]-b[i]) > 1e-8 {
			t.Fatalf("2D Poisson residual %g at %d", r[i]-b[i], i)
		}
	}
	// Solution symmetric about the domain center.
	s := mesh.Nx + 1
	center := u[3*s+3]
	if center <= 0 {
		t.Fatal("center value not positive")
	}
	if math.Abs(u[2*s+3]-u[4*s+3]) > 1e-8 || math.Abs(u[3*s+2]-u[3*s+4]) > 1e-8 {
		t.Fatal("2D solution not symmetric")
	}
}

func TestPowerIterationOnSPDMatrix(t *testing.T) {
	m := baseMachine(t)
	mesh := MakeCartesian1D(m, 12, 1)
	k := AssembleDiffusion1D(m, mesh, One1D)
	x := make([]float64, mesh.N+1)
	for i := range x {
		x[i] = 1
	}
	lambda := PowerIterationRun(m, k, x, 50)
	// Largest eigenvalue of the (Dirichlet-modified) stiffness matrix is
	// positive and bounded by the max row sum.
	if lambda <= 0 {
		t.Fatalf("lambda = %g", lambda)
	}
	var maxRow float64
	for i := 0; i < k.N; i++ {
		var s float64
		for _, v := range k.Val[k.RowPtr[i]:k.RowPtr[i+1]] {
			s += math.Abs(v)
		}
		if s > maxRow {
			maxRow = s
		}
	}
	if lambda > maxRow+1e-9 {
		t.Fatalf("lambda %g exceeds Gershgorin bound %g", lambda, maxRow)
	}
}

func TestAllExamplesRunDeterministically(t *testing.T) {
	p := Program()
	ex, err := link.FullBuild(p, comp.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range AllCases() {
		r1, err := flit.RunAll(tc, ex)
		if err != nil {
			t.Fatalf("%s: %v", tc.Name(), err)
		}
		if len(r1.Vec) == 0 {
			t.Fatalf("%s produced no values", tc.Name())
		}
		for i, v := range r1.Vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s value %d is %g", tc.Name(), i, v)
			}
		}
		r2, err := flit.RunAll(tc, ex)
		if err != nil {
			t.Fatal(err)
		}
		if flit.L2Diff(r1, r2) != 0 {
			t.Fatalf("%s not deterministic", tc.Name())
		}
	}
}

func TestInvariantExamplesNeverVary(t *testing.T) {
	p := Program()
	for _, n := range []int{12, 18} {
		tc := NewCase(n)
		base, err := link.FullBuild(p, comp.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		want, err := flit.RunAll(tc, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range comp.Matrix() {
			ex, err := link.FullBuild(p, c)
			if err != nil {
				t.Fatal(err)
			}
			got, err := flit.RunAll(tc, ex)
			if err != nil {
				t.Fatalf("%s under %s: %v", tc.Name(), c, err)
			}
			if d := flit.L2Diff(want, got); d != 0 {
				t.Fatalf("invariant %s varied under %s: %g", tc.Name(), c, d)
			}
		}
	}
}

func TestExample13LargeRelativeError(t *testing.T) {
	p := Program()
	tc := NewCase(13)
	base, _ := link.FullBuild(p, comp.Baseline())
	want, err := flit.RunAll(tc, base)
	if err != nil {
		t.Fatal(err)
	}
	// The finding-2 compilations: FMA/AVX2 style.
	fmaComp := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O3", Switches: "-mavx2 -mfma"}
	ex, _ := link.FullBuild(p, fmaComp)
	got, err := flit.RunAll(tc, ex)
	if err != nil {
		t.Fatal(err)
	}
	rel := flit.L2Diff(want, got) / want.Norm()
	if rel < 0.5 {
		t.Fatalf("example 13 relative error %g under %s; want chaotic O(1) divergence", rel, fmaComp)
	}
	if math.IsInf(rel, 0) || math.IsNaN(rel) {
		t.Fatalf("example 13 produced non-finite deviation %g", rel)
	}
}

func TestParallelRunsDifferButAreDeterministic(t *testing.T) {
	p := Program()
	base, _ := link.FullBuild(p, comp.Baseline())
	tc := NewCase(2)
	seq, err := flit.RunAll(tc, base)
	if err != nil {
		t.Fatal(err)
	}
	par := tc.WithProcs(4)
	p1, err := flit.RunAll(par, base)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := flit.RunAll(par, base)
	if err != nil {
		t.Fatal(err)
	}
	if flit.L2Diff(p1, p2) != 0 {
		t.Fatal("parallel run not deterministic")
	}
	if flit.L2Diff(seq, p1) == 0 {
		t.Fatal("3-rank domain decomposition produced bitwise-equal results; " +
			"accumulation order should have changed")
	}
}

func TestStripOrderCoversAllElements(t *testing.T) {
	mesh := &Mesh2D{Nx: 7, Ny: 3}
	for np := 2; np <= 5; np++ {
		order := stripOrder(mesh, np)
		if len(order) != mesh.Nx*mesh.Ny {
			t.Fatalf("np=%d: order has %d elements, want %d", np, len(order), mesh.Nx*mesh.Ny)
		}
		seen := map[int]bool{}
		for _, e := range order {
			if seen[e] {
				t.Fatalf("np=%d: duplicate element %d", np, e)
			}
			seen[e] = true
		}
	}
	if stripOrder(mesh, 1) != nil {
		t.Fatal("np=1 should keep row-major order")
	}
}

func TestNewCasePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCase(20)
}

// BenchmarkAssembleDiffusion2D times the sparse assembly of example 2's
// 6×6 stiffness matrix: element integrators, scatter and the CSR build.
func BenchmarkAssembleDiffusion2D(b *testing.B) {
	ex, err := link.FullBuild(Program(), comp.Compilation{Compiler: comp.GCC, OptLevel: "-O3", Switches: "-mavx2 -mfma"})
	if err != nil {
		b.Fatal(err)
	}
	m, err := ex.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	mesh := MakeCartesian2D(m, 6, 6, 1, 1)
	b.ReportAllocs()
	for b.Loop() {
		AssembleDiffusion2D(m, mesh, One2D)
	}
}
