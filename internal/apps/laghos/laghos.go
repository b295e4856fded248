// Package laghos is a miniature Lagrangian compressible-gas-dynamics proxy
// in the shape of the Laghos application of the paper's case study (§3.4 and
// the §1 motivating example): staggered-grid hydrodynamics with an ideal-gas
// EOS, artificial viscosity, and nodal force/energy updates.
//
// It reproduces the two real defects the paper root-caused:
//
//  1. An exact `q == 0.0` comparison in UpdateQuadratureData. Under FMA
//     contraction the symmetric cross-term a·b − b·a, exactly zero in strict
//     arithmetic, leaves a one-rounding residual, so the viscous branch
//     flips and the simulation diverges by ~11% in the energy norm — the
//     xlc++ -O3 incident.
//  2. The `#define xsw(a,b) a^=b^=a^=b` XOR-swap macro, undefined behavior
//     in C++, which the IBM compiler miscompiles into NaN-producing code
//     (the "all results were NaN" public-branch bug, found as the two
//     visible symbols closest to the issue).
package laghos

import (
	"math"
	"sync"

	"repro/internal/comp"
	// Nothing here names fp, but the compiler inlines fp.Env's fast paths
	// (Add, Sub, Mul, Div, MulAdd) only into a package that imports fp:
	// reached through link alone, every one of them stays a call.
	_ "repro/internal/fp"
	"repro/internal/link"
	"repro/internal/prog"
)

var (
	buildOnce sync.Once
	theProg   *prog.Program
)

// Program returns the static description of the mini-Laghos source tree.
func Program() *prog.Program {
	buildOnce.Do(func() { theProg = buildProgram() })
	return theProg
}

// The program's symbols, one per simulated function. Each is also the
// handle its implementation enters through link.Machine.Fn; buildProgram
// registers them, so they are bound to the program once Program has run.
var (
	// laghos.cpp
	symMainLaghos = &prog.Symbol{Name: "main_laghos", Exported: true, Work: 6, FPOps: 10, SLOC: 90,
		Features: prog.Features{ShortExpr: true},
		Callees: []string{"ComputeVolume", "LagrangianHydroOperator::ComputeDt",
			"LagrangianHydroOperator::UpdateQuadratureData",
			"LagrangianHydroOperator::ForceMult",
			"LagrangianHydroOperator::SolveVelocity",
			"LagrangianHydroOperator::SolveEnergy",
			"TimeIntegrator::SwapLevels", "TimeIntegrator::RotateBuffers",
			"EnergyNorm"}}
	symEnergyNorm = &prog.Symbol{Name: "EnergyNorm", Exported: true, Work: 2, FPOps: 3, SLOC: 8,
		Features: prog.Features{Reduction: true, SqrtLibm: true}}

	// laghos_solver.cpp
	symHydroUpdateQuadratureData = &prog.Symbol{Name: "LagrangianHydroOperator::UpdateQuadratureData", Exported: true,
		Work: 8, FPOps: 14, SLOC: 48,
		Features: prog.Features{MulAdd: true, Branch: true, Division: true, Hot: true},
		Callees:  []string{"EOS::Pressure", "EOS::SoundSpeed"}}
	symHydroForceMult = &prog.Symbol{Name: "LagrangianHydroOperator::ForceMult", Exported: true,
		Work: 6, FPOps: 8, SLOC: 26,
		Features: prog.Features{Reduction: true, MulAdd: true},
		Callees:  []string{"ForcePA::Assemble"}}
	symHydroSolveVelocity = &prog.Symbol{Name: "LagrangianHydroOperator::SolveVelocity", Exported: true,
		Work: 5, FPOps: 6, SLOC: 20,
		Features: prog.Features{MulAdd: true, Division: true},
		Callees:  []string{"MassPA::Assemble"}}
	symHydroSolveEnergy = &prog.Symbol{Name: "LagrangianHydroOperator::SolveEnergy", Exported: true,
		Work: 5, FPOps: 8, SLOC: 24,
		Features: prog.Features{Reduction: true, MulAdd: true}}
	symHydroComputeDt = &prog.Symbol{Name: "LagrangianHydroOperator::ComputeDt", Exported: true,
		Work: 2, FPOps: 4, SLOC: 14,
		Features: prog.Features{Division: true, Branch: true},
		Callees:  []string{"EOS::SoundSpeed"}}

	// laghos_assembly.cpp
	symForcePAAssemble = &prog.Symbol{Name: "ForcePA::Assemble", Exported: true, Work: 5, FPOps: 6, SLOC: 28,
		Features: prog.Features{Reduction: true, MulAdd: true}}
	symMassPAAssemble = &prog.Symbol{Name: "MassPA::Assemble", Exported: true, Work: 4, FPOps: 4, SLOC: 22,
		Features: prog.Features{Reduction: true}}

	// eos.cpp
	symEOSPressure = &prog.Symbol{Name: "EOS::Pressure", Exported: true, Work: 2, FPOps: 2, SLOC: 6,
		Features: prog.Features{ShortExpr: true}}
	symEOSSoundSpeed = &prog.Symbol{Name: "EOS::SoundSpeed", Exported: true, Work: 2, FPOps: 4, SLOC: 7,
		Features: prog.Features{SqrtLibm: true, Division: true}}

	// laghos_utils.cpp
	symTimeIntegratorSwapLevels    = &prog.Symbol{Name: "TimeIntegrator::SwapLevels", Exported: true, Work: 1, FPOps: 1, SLOC: 9}
	symTimeIntegratorRotateBuffers = &prog.Symbol{Name: "TimeIntegrator::RotateBuffers", Exported: true, Work: 1, FPOps: 1, SLOC: 11}
	symComputeVolume               = &prog.Symbol{Name: "ComputeVolume", Exported: true, Work: 2, FPOps: 2, SLOC: 8,
		Features: prog.Features{Reduction: true}}
	// MinElementWidth is never entered by the simulation; it stays
	// registered because the program's shape feeds bisect and the cost
	// model.
	symMinElementWidth = &prog.Symbol{Name: "MinElementWidth", Exported: true, Work: 1, FPOps: 1, SLOC: 9}
)

func buildProgram() *prog.Program {
	p := prog.New("laghos")
	p.AddFile("laghos.cpp", symMainLaghos, symEnergyNorm)
	p.AddFile("laghos_solver.cpp",
		symHydroUpdateQuadratureData, symHydroForceMult, symHydroSolveVelocity,
		symHydroSolveEnergy, symHydroComputeDt)
	p.AddFile("laghos_assembly.cpp", symForcePAAssemble, symMassPAAssemble)
	p.AddFile("eos.cpp", symEOSPressure, symEOSSoundSpeed)
	p.AddFile("laghos_utils.cpp",
		symTimeIntegratorSwapLevels, symTimeIntegratorRotateBuffers, symComputeVolume,
		symMinElementWidth)
	if err := p.Validate(); err != nil {
		panic("laghos: invalid program: " + err.Error())
	}
	return p
}

// Options configures a simulation variant.
type Options struct {
	// NaNBug enables the public-branch XOR-swap macro: the two
	// TimeIntegrator symbols are miscompiled into NaN-poisoning code by the
	// IBM compiler (undefined behavior made concrete).
	NaNBug bool
	// EpsilonFix replaces the exact q == 0.0 comparison with an
	// epsilon-based one — the developers' fix, which restores agreement
	// with the trusted results even under xlc++ -O3.
	EpsilonFix bool
	// Cells and Steps size the simulation; zero values take the study
	// defaults (32 cells, 30 steps).
	Cells, Steps int
}

func (o Options) withDefaults() Options {
	if o.Cells == 0 {
		o.Cells = 32
	}
	if o.Steps == 0 {
		o.Steps = 30
	}
	return o
}

// State is the hydrodynamic state: nodes carry velocity and position, cells
// carry density and specific internal energy.
type State struct {
	X   []float64 // node positions (Cells+1)
	V   []float64 // node velocities
	Rho []float64 // cell densities
	E   []float64 // cell energies
}

const gamma = 5.0 / 3.0

// Simulate runs the mini-Laghos problem and returns the final state.
// The setup is a Sedov-flavored energy deposition: one hot cell drives a
// shock into a cold gas.
func Simulate(m *link.Machine, opt Options, seed float64) *State {
	opt = opt.withDefaults()
	_, done := m.Fn(symMainLaghos)
	defer done()

	n := opt.Cells
	st := &State{
		X:   make([]float64, n+1),
		V:   make([]float64, n+1),
		Rho: make([]float64, n),
		E:   make([]float64, n),
	}
	for i := 0; i <= n; i++ {
		st.X[i] = float64(i) / float64(n)
	}
	for c := 0; c < n; c++ {
		st.Rho[c] = 1 + 0.05*seed*float64(c%3)
		st.E[c] = 1.0e4
	}
	st.E[0] = 1.6e4 // the deposition
	st.E[1] = 1.3e4

	for step := 0; step < opt.Steps; step++ {
		dt := ComputeDt(m, st)
		p, q := UpdateQuadratureData(m, st, opt)
		f := ForceMult(m, st, p, q)
		SolveVelocity(m, st, f, dt)
		SolveEnergy(m, st, p, q, dt)
		SwapLevels(m, st, opt)
		RotateBuffers(m, st, opt)
		for i := range st.X {
			st.X[i] += dt * st.V[i] // node motion in the driver (strict)
		}
	}
	return st
}

// ComputeDt returns the CFL-limited timestep.
func ComputeDt(m *link.Machine, st *State) float64 {
	env, done := m.Fn(symHydroComputeDt)
	defer done()
	dt := math.Inf(1)
	for c := range st.Rho {
		h := env.Sub(st.X[c+1], st.X[c])
		cs := SoundSpeed(m, st.Rho[c], st.E[c])
		cand := env.Div(h, cs)
		if cand < dt {
			dt = cand
		}
	}
	return 0.04 * dt
}

// Pressure evaluates the ideal-gas EOS p = (γ−1)ρe.
func Pressure(m *link.Machine, rho, e float64) float64 {
	env, done := m.Fn(symEOSPressure)
	defer done()
	return env.Mul(env.Mul(gamma-1, rho), e)
}

// SoundSpeed returns c = sqrt(γp/ρ).
func SoundSpeed(m *link.Machine, rho, e float64) float64 {
	env, done := m.Fn(symEOSSoundSpeed)
	defer done()
	p := Pressure(m, rho, e)
	return env.Sqrt(env.Div(env.Mul(gamma, p), rho))
}

// UpdateQuadratureData computes per-cell pressure and artificial viscosity.
// It contains the paper's root cause: qzero is the symmetric cross-term
// h·Δv − Δv·h, identically zero in strict arithmetic but a one-rounding
// residual under FMA contraction; the exact q == 0.0 comparison then takes
// the viscous branch, which switches on an O(1) heating term.
func UpdateQuadratureData(m *link.Machine, st *State, opt Options) (p, q []float64) {
	env, done := m.Fn(symHydroUpdateQuadratureData)
	defer done()
	n := len(st.Rho)
	p = make([]float64, n)
	q = make([]float64, n)
	for c := 0; c < n; c++ {
		p[c] = Pressure(m, st.Rho[c], st.E[c])
		h := env.Sub(st.X[c+1], st.X[c])
		dv := env.Sub(st.V[c+1], st.V[c])
		// Velocity-gradient correction: strict evaluation computes
		// (big + dv) - big where big absorbs dv entirely, an exact zero.
		// Reassociation (xlc++ -O3 without -qstrict=vectorprecision)
		// evaluates (big - big) + dv and resurrects dv, leaving a tiny
		// nonzero correction.
		const absorb = 1e18
		qzero := env.Mul(1e-14, env.Sum3(absorb, dv, -absorb))
		var qc float64
		if dv < 0 {
			// Physical compression: full Von Neumann-Richtmyer viscosity.
			cs := SoundSpeed(m, st.Rho[c], st.E[c])
			qc = env.Add(
				env.Mul(env.Mul(0.5, st.Rho[c]), env.Mul(dv, dv)),
				env.Mul(env.Mul(0.1, st.Rho[c]), env.Mul(cs, env.Abs(dv))))
		} else {
			qc = qzero
		}
		var quiet bool
		if opt.EpsilonFix {
			quiet = math.Abs(qc) <= 1e-10 // the developers' fix
		} else {
			quiet = qc == 0.0 // the bug: exact comparison to 0.0
		}
		if !quiet {
			// The viscous limiter: an O(1) term, not scaled by qc — this
			// is why a tiny residual changes the answer by percents.
			qc = env.MulAdd(env.Mul(st.Rho[c], h),
				env.Mul(2e4, env.Abs(dv)+0.02), qc)
		}
		q[c] = qc
	}
	return p, q
}

// ForceMult maps cell stresses to nodal forces.
func ForceMult(m *link.Machine, st *State, p, q []float64) []float64 {
	env, done := m.Fn(symHydroForceMult)
	defer done()
	sigma := AssembleForce(m, p, q)
	n := len(st.Rho)
	f := make([]float64, n+1)
	for i := 1; i < n; i++ {
		f[i] = env.Sub(sigma[i-1], sigma[i])
	}
	f[0] = env.Neg(sigma[0])
	f[n] = sigma[n-1]
	return f
}

// AssembleForce combines pressure and viscosity into the cell stress.
func AssembleForce(m *link.Machine, p, q []float64) []float64 {
	env, done := m.Fn(symForcePAAssemble)
	defer done()
	out := make([]float64, len(p))
	for c := range p {
		// Stress with a small quadratic stabilization term: p + q + εq².
		out[c] = env.MulAdd(env.Mul(1e-7, q[c]), q[c], env.Add(p[c], q[c]))
	}
	return out
}

// NodalMass lumps cell masses onto nodes.
func NodalMass(m *link.Machine, st *State) []float64 {
	env, done := m.Fn(symMassPAAssemble)
	defer done()
	n := len(st.Rho)
	mass := make([]float64, n+1)
	for c := 0; c < n; c++ {
		h := env.Sub(st.X[c+1], st.X[c])
		half := env.Mul(0.5, env.Mul(st.Rho[c], h))
		mass[c] = env.Add(mass[c], half)
		mass[c+1] = env.Add(mass[c+1], half)
	}
	return mass
}

// SolveVelocity advances nodal velocities: v += dt·F/m.
func SolveVelocity(m *link.Machine, st *State, f []float64, dt float64) {
	env, done := m.Fn(symHydroSolveVelocity)
	defer done()
	mass := NodalMass(m, st)
	for i := range st.V {
		st.V[i] = env.MulAdd(dt, env.Div(f[i], mass[i]), st.V[i])
	}
	// Rigid-wall boundary conditions.
	st.V[0] = 0
	st.V[len(st.V)-1] = 0
}

// SolveEnergy advances cell energies with the pdV work plus viscous heating.
func SolveEnergy(m *link.Machine, st *State, p, q []float64, dt float64) {
	env, done := m.Fn(symHydroSolveEnergy)
	defer done()
	for c := range st.E {
		h := env.Sub(st.X[c+1], st.X[c])
		dv := env.Sub(st.V[c+1], st.V[c])
		rate := env.Div(env.Mul(env.Add(p[c], q[c]), dv), env.Mul(st.Rho[c], h))
		// Negative energies (the physical impossibility the Laghos
		// developers observed under xlc++ -O3) are deliberately not
		// clamped: FLiT's compare is what flags them.
		st.E[c] = env.MulAdd(-dt, rate, st.E[c])
	}
}

// SwapLevels is the first of the two symbols carrying the XOR-swap macro.
// With the public-branch bug active, the IBM compiler turns the UB into
// NaN-poisoned buffers.
func SwapLevels(m *link.Machine, st *State, opt Options) {
	_, done := m.Fn(symTimeIntegratorSwapLevels)
	defer done()
	if opt.NaNBug && m.Compiler() == comp.XLC {
		for i := range st.E {
			st.E[i] = math.NaN()
		}
	}
}

// RotateBuffers is the second symbol using the macro.
func RotateBuffers(m *link.Machine, st *State, opt Options) {
	_, done := m.Fn(symTimeIntegratorRotateBuffers)
	defer done()
	if opt.NaNBug && m.Compiler() == comp.XLC {
		for i := range st.V {
			st.V[i] = math.NaN()
		}
	}
}

// EnergyNorm returns the ℓ2 norm of the cell energies — the quantity the
// motivating example reports (129,664.9 vs 144,174.9).
func EnergyNorm(m *link.Machine, e []float64) float64 {
	env, done := m.Fn(symEnergyNorm)
	defer done()
	return env.Norm2(e)
}

// Volume returns the total domain volume (a sanity diagnostic).
func Volume(m *link.Machine, st *State) float64 {
	env, done := m.Fn(symComputeVolume)
	defer done()
	widths := make([]float64, len(st.Rho))
	for c := range widths {
		widths[c] = env.Sub(st.X[c+1], st.X[c])
	}
	return env.Sum(widths)
}
