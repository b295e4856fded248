package mfem

import (
	"fmt"
	"math"

	"repro/internal/flit"
	"repro/internal/link"
)

// The 19 end-to-end examples of the MFEM study (ex1.cpp … ex19.cpp). Each
// produces "calculated values over a full mesh or volume" (paper §3.1);
// the study's comparison is the ℓ2 norm of the difference from the g++ -O0
// baseline. Examples 12 and 18 compute in exactly representable arithmetic
// and are therefore invariant under every tested compilation, matching the
// two invariant tests of Figure 5.

// Case adapts one example to the flit.TestCase protocol.
type Case struct {
	N     int
	procs int // simulated MPI ranks; 0 or 1 = sequential
}

// NewCase returns the FLiT test case for example n (1-based).
func NewCase(n int) *Case {
	if n < 1 || n > 19 {
		panic(fmt.Sprintf("mfem: no example %d", n))
	}
	return &Case{N: n}
}

// AllCases returns the 19 example test cases in order.
func AllCases() []flit.TestCase {
	out := make([]flit.TestCase, 19)
	for i := range out {
		out[i] = NewCase(i + 1)
	}
	return out
}

// WithProcs returns a copy of the case running under np simulated MPI
// ranks: the 2-D assembly traverses elements in the rank-partitioned order,
// which changes accumulation order exactly as a domain decomposition does.
func (c *Case) WithProcs(np int) *Case {
	return &Case{N: c.N, procs: np}
}

// Name implements flit.TestCase.
func (c *Case) Name() string {
	if c.N >= 0 && c.N < len(exampleNames) {
		return exampleNames[c.N]
	}
	return fmt.Sprintf("Example%02d", c.N)
}

// exampleNames holds Name by example number: every cache lookup of a run
// names its test, and formatting the name each time allocated.
var exampleNames = func() (names [20]string) {
	for n := range names {
		names[n] = fmt.Sprintf("Example%02d", n)
	}
	return names
}()

// CacheKey implements flit.CacheKeyer: an MPI variant shares its name with
// the sequential case but traverses the mesh in rank-partitioned order, so
// the build/run cache must not conflate them.
func (c *Case) CacheKey() string {
	if c.procs > 1 {
		return fmt.Sprintf("%s/np=%d", c.Name(), c.procs)
	}
	return c.Name()
}

// Root implements flit.TestCase.
func (c *Case) Root() string { return exampleSymbol(c.N) }

// GetInputsPerRun implements flit.TestCase: every example consumes two
// seed values.
func (c *Case) GetInputsPerRun() int { return 2 }

// GetDefaultInput implements flit.TestCase.
func (c *Case) GetDefaultInput() []float64 {
	return []float64{0.37 + 0.01*float64(c.N), 0.61 - 0.005*float64(c.N)}
}

// Compare implements flit.TestCase with the study's metric
// ||baseline - actual||₂.
func (c *Case) Compare(baseline, other flit.Result) float64 {
	return flit.L2Diff(baseline, other)
}

// Run implements flit.TestCase.
func (c *Case) Run(input []float64, m *link.Machine) (flit.Result, error) {
	fn := exampleFuncs[c.N-1]
	return flit.VecResult(fn(m, input, c.procs)), nil
}

type exampleFunc func(m *link.Machine, input []float64, procs int) []float64

var exampleFuncs = [19]exampleFunc{
	example1, example2, example3, example4, example5, example6, example7,
	example8, example9, example10, example11, example12, example13,
	example14, example15, example16, example17, example18, example19,
}

// enter brackets an example's main symbol.
func enter(m *link.Machine, n int) func() {
	_, done := m.Fn(exampleSyms[n-1])
	return done
}

// decompose returns the global column count after an np-rank domain
// decomposition: each rank meshes its strip with equal local resolution
// ceil(nx/np), so a decomposition that does not divide evenly increases the
// grid density — the effect the paper observed when comparing parallel runs
// against sequential ones (§3.6).
func decompose(nx, np int) int {
	if np <= 1 {
		return nx
	}
	return np * ((nx + np - 1) / np)
}

// stripOrder returns the element traversal order for np vertical-strip
// subdomains of a 2-D mesh — the domain decomposition of the MPI study.
func stripOrder(mesh *Mesh2D, np int) []int {
	if np <= 1 {
		return nil
	}
	var order []int
	per := (mesh.Nx + np - 1) / np
	for p := 0; p < np; p++ {
		lo, hi := p*per, (p+1)*per
		if hi > mesh.Nx {
			hi = mesh.Nx
		}
		// Each rank numbers its rows locally; odd ranks sweep top-down,
		// so shared-node contributions accumulate in a different order
		// than the sequential row-major sweep.
		for r := 0; r < mesh.Ny; r++ {
			ey := r
			if p%2 == 1 {
				ey = mesh.Ny - 1 - r
			}
			for ex := lo; ex < hi; ex++ {
				order = append(order, ey*mesh.Nx+ex)
			}
		}
	}
	return order
}

// example1: 1-D Poisson -u” = 1 with Dirichlet BC, CG solve.
func example1(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 1)()
	mesh := MakeCartesian1D(m, 24, 1)
	k := AssembleDiffusion1D(m, mesh, One1D)
	b := AssembleRHS1D(m, mesh, func(m *link.Machine, x float64) float64 { return 1 + in[0]*0 })
	u := make([]float64, mesh.N+1)
	CGSolve(m, k, b, u, 1e-10, 120)
	return u
}

// example2: 2-D Poisson on a 6×6 quad mesh.
func example2(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 2)()
	mesh := MakeCartesian2D(m, decompose(6, procs), 6, 1, 1)
	mesh.ElemOrder = stripOrder(mesh, procs)
	k := AssembleDiffusion2D(m, mesh, One2D)
	b := AssembleRHS2D(m, mesh, func(m *link.Machine, x, y float64) float64 { return in[0] + 1 })
	u := make([]float64, mesh.NumNodes())
	CGSolve(m, k, b, u, 1e-10, 200)
	return u
}

// example3: L2 projection on a perturbed 1-D mesh: solve M u = b(Runge·poly).
func example3(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 3)()
	mesh := MakeCartesian1D(m, 24, 1)
	PerturbNodes1D(m, mesh, 0.1*in[0])
	mass := AssembleMass1D(m, mesh, One1D)
	rhs := AssembleRHS1D(m, mesh, func(m *link.Machine, x float64) float64 {
		return CoeffRunge(m, x) * CoeffPoly(m, x)
	})
	u := make([]float64, mesh.N+1)
	CGSolve(m, mass, rhs, u, 1e-11, 150)
	g := Project1D(m, mesh, CoeffPoly)
	return append(u, g...)
}

// example4: 2-D diffusion with the sqrt-radius coefficient (libm-bearing:
// Intel's link step makes this example variable at every icpc compilation).
func example4(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 4)()
	mesh := MakeCartesian2D(m, decompose(6, procs), 6, 1, 1)
	mesh.ElemOrder = stripOrder(mesh, procs)
	k := AssembleDiffusion2D(m, mesh, CoeffSqrtRadius)
	b := AssembleRHS2D(m, mesh, func(m *link.Machine, x, y float64) float64 { return 1 + in[0] })
	u := make([]float64, mesh.NumNodes())
	CGSolve(m, k, b, u, 1e-10, 200)
	return u
}

// example5: 2-D Poisson with Jacobi-preconditioned CG (Figure 4a's test).
func example5(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 5)()
	mesh := MakeCartesian2D(m, decompose(7, procs), 7, 1, 1)
	mesh.ElemOrder = stripOrder(mesh, procs)
	k := AssembleDiffusion2D(m, mesh, One2D)
	b := AssembleRHS2D(m, mesh, func(m *link.Machine, x, y float64) float64 {
		return CoeffSqrtRadius(m, x, y) + in[0]
	})
	u := make([]float64, mesh.NumNodes())
	PCGSolve(m, k, b, u, 1e-10, 200)
	return u
}

// example6: 1-D advection with upwind fluxes and RK2 time stepping.
func example6(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 6)()
	mesh := MakeCartesian1D(m, 32, 1)
	n := mesh.N
	u := make([]float64, n)
	for i := 0; i < n; i++ {
		x := MapToInterval(m, float64(i)/float64(n), 0, 1)
		u[i] = CoeffPoly(m, x*in[0]) * 0.1
	}
	h := ElementSize1D(m, mesh, 0)
	v := 0.8 + in[1]*0.1
	dt := 0.4 * h / v
	flux := func(u, du []float64) {
		for i := range du {
			left, right := u[(i+n-1)%n], u[i]
			fl := Upwind(m, v, left, right)
			fr := Upwind(m, v, right, u[(i+1)%n])
			du[i] = (fl - fr) / h
		}
	}
	for step := 0; step < 30; step++ {
		RK2Step(m, u, dt, flux)
	}
	mass := Sum(m, u)
	return append(u, mass)
}

// example7: mass-weighted projection: w = M · Π(poly).
func example7(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 7)()
	mesh := MakeCartesian2D(m, decompose(6, procs), 6, 1, 1)
	mesh.ElemOrder = stripOrder(mesh, procs)
	mass := AssembleMass2D(m, mesh, One2D)
	g := Project2D(m, mesh, func(m *link.Machine, x, y float64) float64 {
		return CoeffPoly(m, x) * CoeffPoly(m, y*in[0])
	})
	w := make([]float64, mesh.NumNodes())
	SpMult(m, mass, g, w)
	return w
}

// example8: deep iterative solve with a 1e-12 stopping criterion — the
// paper's Finding 1, where compilations converge to visibly different
// answers and Bisect blames the whole mat-vec chain.
func example8(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 8)()
	mesh := MakeCartesian2D(m, decompose(7, procs), 7, 1, 1)
	mesh.ElemOrder = stripOrder(mesh, procs)
	k := AssembleDiffusion2D(m, mesh, func(m *link.Machine, x, y float64) float64 {
		// Strongly varying coefficient: worsens conditioning.
		return 1 + 50*x*x + in[0]*y
	})
	b := AssembleRHS2D(m, mesh, func(m *link.Machine, x, y float64) float64 {
		return CoeffPoly(m, x) - CoeffPoly(m, y)
	})
	u := make([]float64, mesh.NumNodes())
	PCGSolve(m, k, b, u, 1e-12, 400)
	mass := AssembleMass2D(m, mesh, One2D)
	mu := make([]float64, len(u))
	SpMult(m, mass, u, mu)
	err := L2Error(m, u, mu)
	return append(u, err)
}

// example9: block computation with dense kernels (Figure 4b's test: heavy
// enough that aggressive vector compilations win big).
func example9(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 9)()
	mesh := MakeCartesian2D(m, decompose(6, procs), 6, 1, 1)
	mesh.ElemOrder = stripOrder(mesh, procs)
	k := AssembleDiffusion2D(m, mesh, func(m *link.Machine, x, y float64) float64 {
		return CoeffExpDecay(m, x) + in[0]
	})
	mass := AssembleMass2D(m, mesh, One2D)
	b := AssembleRHS2D(m, mesh, One2D)
	u := make([]float64, mesh.NumNodes())
	CGSolve(m, k, b, u, 1e-10, 200)

	// Dense postprocessing block.
	d := NewDense(8, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			v := u[(i*8+j)%len(u)]
			if i == j {
				v += 0.5 // diagonal dominance keeps the block well-behaved
			}
			d.Set(i, j, v)
		}
	}
	x := u[:8]
	y := make([]float64, 8)
	DenseMult(m, d, x, y)
	yt := make([]float64, 8)
	DenseMultTranspose(m, d, y, yt)
	Normalize(m, yt)
	tr := Trace(m, d)
	fn := FNorm(m, d)
	inv2 := NewDense(2, 2)
	inv2.Set(0, 0, 2+u[0])
	inv2.Set(0, 1, 0.5)
	inv2.Set(1, 0, 0.25)
	inv2.Set(1, 1, 1+u[1])
	det := Invert2x2(m, inv2)
	low := NewDense(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j <= i; j++ {
			low.Set(i, j, 1+u[(i*4+j)%len(u)]*0.1)
		}
	}
	rhs4 := append([]float64(nil), y[:4]...)
	LSolve(m, low, rhs4)
	mz := make([]float64, len(u))
	SpMult(m, mass, u, mz)
	out := append(append([]float64(nil), u...), y...)
	out = append(out, yt...)
	out = append(out, tr, fn, det)
	out = append(out, rhs4...)
	return append(out, mz[:8]...)
}

// example10: nonlinear reaction-diffusion by fixed-point iteration with an
// exp source (libm-bearing).
func example10(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 10)()
	mesh := MakeCartesian1D(m, 24, 1)
	k := AssembleDiffusion1D(m, mesh, One1D)
	u := make([]float64, mesh.N+1)
	for iter := 0; iter < 8; iter++ {
		rhs := AssembleRHS1D(m, mesh, func(m *link.Machine, x float64) float64 {
			return CoeffExpDecay(m, x) + in[0]*u[mesh.N/2]
		})
		next := make([]float64, len(u))
		CGSolve(m, k, rhs, next, 1e-10, 120)
		if Norml2(m, next) == Norml2(m, u) {
			break // exact fixed point (a Branch on computed values)
		}
		u = next
	}
	return u
}

// example11: dominant eigenvalue of the 1-D stiffness matrix by power
// iteration.
func example11(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 11)()
	mesh := MakeCartesian1D(m, 24, 1)
	k := AssembleDiffusion1D(m, mesh, One1D)
	x := make([]float64, mesh.N+1)
	for i := range x {
		x[i] = 1 + in[0]*float64(i%3)
	}
	prev := append([]float64(nil), x...)
	lambda := PowerIterationRun(m, k, x, 30)
	drift := DistanceTo(m, x, prev)
	return append(append([]float64(nil), x...), lambda, drift)
}

// example12: exactly representable arithmetic — invariant under every
// compilation (one of the two invariant tests of Figure 5). All values are
// small integers scaled by powers of two, so contraction, reassociation,
// widened intermediates, and FTZ cannot change any rounding.
func example12(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 12)()
	mesh := MakeCartesian1D(m, 16, 1) // h = 1/16: exact
	a := &CSR{N: 8,
		RowPtr: []int{0, 1, 2, 3, 4, 5, 6, 7, 8},
		Col:    []int{0, 1, 2, 3, 4, 5, 6, 7},
		Val:    []float64{2, 4, 8, 16, 32, 64, 128, 256},
	}
	d := make([]float64, a.N)
	SpGetDiag(m, a, d)
	mx := Max(m, d)
	out := append(append([]float64(nil), mesh.X...), d...)
	return append(out, mx)
}

// example13: the AddMult_a_AAt stress test — Finding 2. The dense kernel's
// rounding differences feed a chaotic recurrence in the (pattern-free,
// hence never-transformed) main, so variability-inducing compilations land
// around 180–200% relative error while the baseline stays deterministic.
func example13(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 13)()
	a := NewDense(3, 3)
	mm := NewDense(3, 3)
	x := 0.3 + 0.4*in[1]
	for k := 0; k < 120; k++ {
		// A depends on the state, so the kernel computes fresh dot
		// products every step and its rounding noise re-enters the loop.
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a.Set(i, j, x+float64(i*3+j)/7.0)
			}
		}
		for i := range mm.A {
			mm.A[i] = 0
		}
		AddMultAAt(m, in[0]+0.5, a, mm) // M = c·A·Aᵀ
		v := mm.At(0, 0)
		f := v - math.Floor(v)
		x = 3.9 * f * (1 - f) // chaotic: kernel rounding noise amplifies
	}
	return append(append([]float64(nil), mm.A...), x)
}

// example14: 2-D Poisson on a stretched 2×1 domain.
func example14(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 14)()
	mesh := MakeCartesian2D(m, decompose(8, procs), 4, 2, 1)
	mesh.ElemOrder = stripOrder(mesh, procs)
	k := AssembleDiffusion2D(m, mesh, One2D)
	b := AssembleRHS2D(m, mesh, func(m *link.Machine, x, y float64) float64 {
		return 1 + in[0]*x
	})
	u := make([]float64, mesh.NumNodes())
	CGSolve(m, k, b, u, 1e-10, 200)
	total := Sum(m, u)
	return append(u, total)
}

// example15: Helmholtz-flavored combination with both libm coefficients.
func example15(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 15)()
	mesh := MakeCartesian2D(m, decompose(6, procs), 6, 1, 1)
	mesh.ElemOrder = stripOrder(mesh, procs)
	mass := AssembleMass2D(m, mesh, CoeffSqrtRadius)
	k := AssembleDiffusion2D(m, mesh, func(m *link.Machine, x, y float64) float64 {
		return CoeffExpDecay(m, x) + in[0]*y
	})
	g := Project2D(m, mesh, CoeffSqrtRadius)
	w := make([]float64, mesh.NumNodes())
	SpMult(m, k, g, w)
	z := make([]float64, mesh.NumNodes())
	CGSolve(m, mass, w, z, 1e-10, 200)
	return z
}

// example16: 1-D heat equation, mass-solve time stepping.
func example16(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 16)()
	mesh := MakeCartesian1D(m, 24, 1)
	mass := AssembleMass1D(m, mesh, One1D)
	k := AssembleDiffusion1D(m, mesh, One1D)
	u := make([]float64, mesh.N+1)
	for i := range u {
		u[i] = CoeffPoly(m, mesh.X[i]*in[0]) * 0.01
	}
	dt := 2e-4
	rhs := make([]float64, len(u))
	for step := 0; step < 10; step++ {
		SpMult(m, mass, u, rhs)
		SpAddMult(m, -dt, k, u, rhs)
		next := make([]float64, len(u))
		CGSolve(m, mass, rhs, next, 1e-11, 120)
		u = next
	}
	return u
}

// example17: Gauss-Seidel relaxation and the energy inner product.
func example17(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 17)()
	mesh := MakeCartesian2D(m, decompose(6, procs), 6, 1, 1)
	mesh.ElemOrder = stripOrder(mesh, procs)
	k := AssembleDiffusion2D(m, mesh, One2D)
	b := AssembleRHS2D(m, mesh, func(m *link.Machine, x, y float64) float64 {
		return in[0] + x*y
	})
	x := make([]float64, mesh.NumNodes())
	for sweep := 0; sweep < 25; sweep++ {
		GaussSeidel(m, k, b, x)
	}
	energy := SpInnerProduct(m, k, x, x)
	return append(x, energy)
}

// example18: the second invariant test — powers of two only.
func example18(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 18)()
	mesh := MakeCartesian1D(m, 8, 1) // h = 1/8: exact
	a := make([]float64, 16)
	b := make([]float64, 16)
	for i := range a {
		a[i] = float64(int(1) << uint(i%10))
		b[i] = 0.5 * float64(i)
	}
	sum := make([]float64, 16)
	Add(m, sum, a, b)
	Scale(m, 0.25, sum)
	id := &CSR{N: 4, RowPtr: []int{0, 1, 2, 3, 4}, Col: []int{0, 1, 2, 3},
		Val: []float64{1, 2, 4, 8}}
	d := make([]float64, 4)
	SpGetDiag(m, id, d)
	out := append(append([]float64(nil), mesh.X...), sum...)
	return append(out, d...)
}

// example19: 1-D transport-reaction with convection element matrices,
// upwind stabilization, RK2 stepping, and a final Jacobi relaxation.
func example19(m *link.Machine, in []float64, procs int) []float64 {
	defer enter(m, 19)()
	mesh := MakeCartesian1D(m, 24, 1)
	n := mesh.N + 1
	// Global convection operator assembled directly from element matrices.
	bld := newCSRBuilder(n)
	for i := 0; i < n; i++ {
		bld.add(i, i, 1) // A = I + 0.15·C
	}
	for e := 0; e < mesh.N; e++ {
		ke := ConvectionElement1D(m, mesh, e, 1+in[0])
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				bld.add(e+i, e+j, 0.15*ke.At(i, j))
			}
		}
	}
	a := bld.build()
	u := make([]float64, n)
	for i := range u {
		u[i] = 0.1 + 0.01*float64(i%5)
	}
	dt := 0.01
	deriv := func(u, du []float64) {
		for i := range du {
			l, r := u[(i+n-1)%n], u[(i+1)%n]
			du[i] = Upwind(m, 1+in[1], l, u[i]) - Upwind(m, 1+in[1], u[i], r)
		}
	}
	for step := 0; step < 12; step++ {
		RK2Step(m, u, dt, deriv)
	}
	x := make([]float64, n)
	JacobiIterate(m, a, u, x, 0.8, 3)
	total := Sum(m, x)
	return append(x, total)
}
