package lulesh

import (
	"math"

	"repro/internal/link"
)

// Domain is the simulation state: a 1-D column of elements in the
// structural shape of LULESH's domain object.
type Domain struct {
	N int // elements

	// Node-centered.
	X, Xd, Xdd, F []float64

	// Element-centered.
	E, P, Q, V, Delv, Arealg, SS, Mass []float64

	DT, DTCourant, DTHydro float64
}

// NewDomain initializes the Sedov-like problem: energy deposited in the
// first element of a uniform cold gas.
func NewDomain(n int, seed float64) *Domain {
	d := &Domain{N: n,
		X: make([]float64, n+1), Xd: make([]float64, n+1),
		Xdd: make([]float64, n+1), F: make([]float64, n+1),
		E: make([]float64, n), P: make([]float64, n), Q: make([]float64, n),
		V: make([]float64, n), Delv: make([]float64, n),
		Arealg: make([]float64, n), SS: make([]float64, n),
		Mass: make([]float64, n),
	}
	for i := 0; i <= n; i++ {
		d.X[i] = float64(i) / float64(n)
	}
	for c := 0; c < n; c++ {
		d.V[c] = 1
		d.Mass[c] = 1.0 / float64(n)
		// Warm background with a gentle gradient: every cell has pressure,
		// so the whole domain participates from the first step.
		d.E[c] = 0.02 + 0.002*float64(c)
		d.SS[c] = 0.3
	}
	d.E[0] = 3.0 + seed
	d.DT = 5e-3
	d.DTCourant = 1e20
	d.DTHydro = 1e20
	return d
}

// Run advances the domain the given number of steps and returns the result
// vector FLiT compares (energies, positions, and the final timestep).
func Run(m *link.Machine, steps int, seed float64) []float64 {
	env, done := m.Fn(symMainLulesh)
	defer done()
	d := NewDomain(16, seed)
	for s := 0; s < steps; s++ {
		TimeIncrement(m, d)
		LagrangeLeapFrog(m, d)
	}
	// Final diagnostics computed in main (the VerifyAndWriteFinalOutput
	// checksum of the original).
	var totalE, totalX float64
	for _, e := range d.E {
		totalE = env.Add(totalE, e)
	}
	for _, x := range d.X {
		totalX = env.Add(totalX, x)
	}
	out := append([]float64(nil), d.E...)
	out = append(out, d.X...)
	return append(out, d.DT, totalE, totalX)
}

// TimeIncrement computes the new timestep from the constraint minima.
func TimeIncrement(m *link.Machine, d *Domain) {
	env, done := m.Fn(symTimeIncrement)
	defer done()
	target := env.Mul(d.DT, 1.1)
	if d.DTCourant < target {
		target = env.Mul(d.DTCourant, 0.5)
	}
	if d.DTHydro < target {
		target = env.Mul(d.DTHydro, 2.0/3.0)
	}
	if target > 0.08 {
		target = 0.08
	}
	// Ramp bookkeeping (injectable pass-through arithmetic).
	target = env.Mul(env.Add(target, 0), 1.0)
	ratio := env.Div(target, d.DT)
	d.DT = env.Mul(d.DT, ratio)
}

// LagrangeLeapFrog is one whole timestep.
func LagrangeLeapFrog(m *link.Machine, d *Domain) {
	_, done := m.Fn(symLagrangeLeapFrog)
	defer done()
	LagrangeNodal(m, d)
	LagrangeElemental(m, d)
	CalcTimeConstraintsForElems(m, d)
}

// LagrangeNodal advances the node-centered quantities.
func LagrangeNodal(m *link.Machine, d *Domain) {
	env, done := m.Fn(symLagrangeNodal)
	defer done()
	CalcForceForNodes(m, d)
	CalcAccelerationForNodes(m, d)
	CalcVelocityForNodes(m, d)
	CalcPositionForNodes(m, d)
	// Kinetic-energy diagnostic used by the ghost-exchange bookkeeping.
	for i := 0; i <= d.N; i++ {
		ke := env.Mul(d.Xd[i], d.Xd[i])
		d.F[i] = env.MulAdd(1e-6, ke, d.F[i])
	}
}

// CalcForceForNodes gathers stress and hourglass forces.
func CalcForceForNodes(m *link.Machine, d *Domain) {
	env, done := m.Fn(symCalcForceForNodes)
	defer done()
	for i := range d.F {
		d.F[i] = 0
	}
	IntegrateStressForElems(m, d)
	CalcHourglassControlForElems(m, d)
	// Ghost-region force pass (injectable pass-through arithmetic).
	for i := 1; i < d.N; i++ {
		d.F[i] = env.Mul(env.Add(d.F[i], 0), 1.0)
	}
}

// IntegrateStressForElems turns element stress into nodal forces.
func IntegrateStressForElems(m *link.Machine, d *Domain) {
	env, done := m.Fn(symIntegrateStressForElems)
	defer done()
	sig := InitStressTermsForElems(m, d)
	normals := SumElemFaceNormal(m, d)
	for c := 0; c < d.N; c++ {
		f := env.Mul(sig[c], normals[c])
		fHalf := env.Mul(0.5, f)
		corr := env.MulAdd(0.01, env.Sub(normals[c], 1), fHalf)
		// sig is already the negated pressure: the left node is pushed
		// toward -x, the right node toward +x.
		d.F[c] = env.Add(d.F[c], corr)
		d.F[c+1] = env.Sub(d.F[c+1], corr)
	}
}

// InitStressTermsForElems computes -(p+q) per element.
func InitStressTermsForElems(m *link.Machine, d *Domain) []float64 {
	env, done := m.Fn(symInitStressTermsForElems)
	defer done()
	out := make([]float64, d.N)
	for c := 0; c < d.N; c++ {
		out[c] = env.Neg(env.Add(d.P[c], d.Q[c]))
	}
	return out
}

// SumElemFaceNormal computes per-element face weights from geometry.
func SumElemFaceNormal(m *link.Machine, d *Domain) []float64 {
	env, done := m.Fn(symSumElemFaceNormal)
	defer done()
	out := make([]float64, d.N)
	for c := 0; c < d.N; c++ {
		h := env.Sub(d.X[c+1], d.X[c])
		a := env.MulAdd(h, 0.5, 0.75)
		b := env.MulAdd(h, -0.5, 0.25)
		out[c] = env.Add(env.Mul(a, a), env.Mul(b, b))
		out[c] = env.Div(out[c], env.MulAdd(a, a, env.Mul(b, b)))
	}
	return out
}

// CalcHourglassControlForElems damps spurious zero-energy modes.
func CalcHourglassControlForElems(m *link.Machine, d *Domain) {
	env, done := m.Fn(symCalcHourglassControlForElems)
	defer done()
	const hgcoef = 0.03
	ders := VoluDer(m, d)
	hg := CalcFBHourglassForceForElems(m, d, ders)
	for c := 0; c < d.N; c++ {
		f := env.Mul(hgcoef, hg[c])
		d.F[c] = env.Sub(d.F[c], f)
		d.F[c+1] = env.Add(d.F[c+1], f)
	}
}

// VoluDer computes volume derivatives with respect to node motion.
func VoluDer(m *link.Machine, d *Domain) []float64 {
	env, done := m.Fn(symVoluDer)
	defer done()
	out := make([]float64, d.N)
	for c := 0; c < d.N; c++ {
		h := env.Sub(d.X[c+1], d.X[c])
		t := env.MulAdd(h, 0.25, env.Mul(h, 0.75))
		out[c] = env.Div(t, h) // == 1 in exact arithmetic; carries rounding
	}
	return out
}

// CalcFBHourglassForceForElems computes the Flanagan-Belytschko hourglass
// force magnitudes.
func CalcFBHourglassForceForElems(m *link.Machine, d *Domain, ders []float64) []float64 {
	env, done := m.Fn(symCalcFBHourglassForceForElems)
	defer done()
	out := make([]float64, d.N)
	for c := 0; c < d.N; c++ {
		dvMode := env.Sub(d.Xd[c+1], d.Xd[c]) // the hourglass mode amplitude
		rho := env.Div(d.Mass[c], env.Sub(d.X[c+1], d.X[c]))
		coef := env.Mul(rho, env.Mul(d.SS[c], d.Arealg[c]))
		scaled := env.Mul(coef, env.Mul(dvMode, ders[c]))
		damp := env.Sqrt(env.MulAdd(scaled, scaled, 1e-8))
		if scaled < 0 {
			damp = -damp
		}
		out[c] = env.Mul(damp, 1.0)
	}
	return out
}

// CalcAccelerationForNodes computes xdd = F/m with lumped nodal masses.
func CalcAccelerationForNodes(m *link.Machine, d *Domain) {
	env, done := m.Fn(symCalcAccelerationForNodes)
	defer done()
	for i := 0; i <= d.N; i++ {
		var nm float64
		if i == 0 {
			nm = env.Mul(0.5, d.Mass[0])
		} else if i == d.N {
			nm = env.Mul(0.5, d.Mass[d.N-1])
		} else {
			nm = env.Mul(0.5, env.Add(d.Mass[i-1], d.Mass[i]))
		}
		d.Xdd[i] = env.Div(d.F[i], nm)
	}
	// Symmetry boundary: the walls do not accelerate.
	d.Xdd[0] = 0
	d.Xdd[d.N] = 0
}

// CalcVelocityForNodes advances velocities, zeroing negligible ones — the
// LULESH u_cut cutoff branch.
func CalcVelocityForNodes(m *link.Machine, d *Domain) {
	env, done := m.Fn(symCalcVelocityForNodes)
	defer done()
	const ucut = 1e-12
	for i := 0; i <= d.N; i++ {
		v := env.MulAdd(d.DT, d.Xdd[i], d.Xd[i])
		if math.Abs(v) < ucut {
			v = 0
		}
		d.Xd[i] = v
	}
}

// CalcPositionForNodes advances positions.
func CalcPositionForNodes(m *link.Machine, d *Domain) {
	env, done := m.Fn(symCalcPositionForNodes)
	defer done()
	for i := 0; i <= d.N; i++ {
		d.X[i] = env.MulAdd(d.DT, d.Xd[i], d.X[i])
	}
}

// LagrangeElemental advances the element-centered quantities.
func LagrangeElemental(m *link.Machine, d *Domain) {
	env, done := m.Fn(symLagrangeElemental)
	defer done()
	CalcLagrangeElements(m, d)
	CalcQForElems(m, d)
	ApplyMaterialPropertiesForElems(m, d)
	UpdateVolumesForElems(m, d)
	// Internal-energy diagnostic.
	for c := 0; c < d.N; c++ {
		d.E[c] = env.Add(d.E[c], 0)
	}
}

// CalcLagrangeElements updates kinematic element quantities.
func CalcLagrangeElements(m *link.Machine, d *Domain) {
	env, done := m.Fn(symCalcLagrangeElements)
	defer done()
	CalcKinematicsForElems(m, d)
	for c := 0; c < d.N; c++ {
		// vdov: relative volume change rate, clipped at tiny values.
		if math.Abs(d.Delv[c]) < 1e-14 {
			d.Delv[c] = 0
		}
		d.Arealg[c] = env.Mul(d.Arealg[c], 1.0)
	}
}

// CalcKinematicsForElems computes new volumes and velocity gradients.
func CalcKinematicsForElems(m *link.Machine, d *Domain) {
	env, done := m.Fn(symCalcKinematicsForElems)
	defer done()
	for c := 0; c < d.N; c++ {
		vol := CalcElemVolume(m, d, c)
		d.Delv[c] = env.Div(env.Sub(d.Xd[c+1], d.Xd[c]),
			env.Sub(d.X[c+1], d.X[c]))
		refVol := env.Div(1.0, float64(d.N))
		d.V[c] = env.Div(vol, refVol)
		d.Arealg[c] = CalcElemCharacteristicLength(m, d, c)
		// Normalize by the shape-function Jacobian determinant: exactly
		// h³/h³ = 1 unless an injection perturbs the derivative kernel.
		h := env.Sub(d.X[c+1], d.X[c])
		expected := env.Mul(env.Mul(h, h), h)
		dss := CalcElemShapeFunctionDerivatives(m, d, c)
		d.Arealg[c] = env.Mul(d.Arealg[c], env.Div(dss, expected))
	}
}

// CalcElemVolume returns the element's current volume through the
// hexahedron-style triple-product form collapsed to 1-D.
func CalcElemVolume(m *link.Machine, d *Domain, c int) float64 {
	env, done := m.Fn(symCalcElemVolume)
	defer done()
	x0, x1 := d.X[c], d.X[c+1]
	h := env.Sub(x1, x0)
	t1 := env.Mul(h, 1.0)
	t2 := env.Add(t1, 0.0)
	t3 := env.Sum3(t2, 0, 0)
	return env.Mul(t3, 1.0)
}

// CalcElemCharacteristicLength returns the shock-resolution length scale.
func CalcElemCharacteristicLength(m *link.Machine, d *Domain, c int) float64 {
	env, done := m.Fn(symCalcElemCharacteristicLength)
	defer done()
	h := env.Sub(d.X[c+1], d.X[c])
	area := env.Mul(h, h)
	return env.Div(env.Mul(4.0, area), env.Sqrt(env.Mul(area, 4.0)))
}

// CalcElemShapeFunctionDerivatives returns the determinant-like diagnostic
// of the (here trivial) shape-function Jacobian.
func CalcElemShapeFunctionDerivatives(m *link.Machine, d *Domain, c int) float64 {
	env, done := m.Fn(symCalcElemShapeFunctionDerivatives)
	defer done()
	h := env.Sub(d.X[c+1], d.X[c])
	j := env.Mul(0.5, h)
	// 8·(h/2)³ rounds identically to h³ (powers of two are exact).
	return env.Mul(8.0, env.Mul(env.Mul(j, j), j))
}

// CalcQForElems computes artificial viscosity.
func CalcQForElems(m *link.Machine, d *Domain) {
	env, done := m.Fn(symCalcQForElems)
	defer done()
	grads := CalcMonotonicQGradientsForElems(m, d)
	CalcMonotonicQRegionForElems(m, d, grads)
	for c := 0; c < d.N; c++ {
		d.Q[c] = env.Mul(env.Add(d.Q[c], 0), 1.0)
	}
}

// CalcMonotonicQGradientsForElems returns per-element velocity gradients.
func CalcMonotonicQGradientsForElems(m *link.Machine, d *Domain) []float64 {
	env, done := m.Fn(symCalcMonotonicQGradientsForElems)
	defer done()
	out := make([]float64, d.N)
	for c := 0; c < d.N; c++ {
		h := env.Sub(d.X[c+1], d.X[c])
		dv := env.Sub(d.Xd[c+1], d.Xd[c])
		g := env.Div(dv, h)
		out[c] = env.MulAdd(g, 1.0, env.Mul(0.0, g))
	}
	return out
}

// CalcMonotonicQRegionForElems limits and applies the viscosity.
func CalcMonotonicQRegionForElems(m *link.Machine, d *Domain, grads []float64) {
	env, done := m.Fn(symCalcMonotonicQRegionForElems)
	defer done()
	const qlcMonoq, qqcMonoq = 0.5, 2.0 / 3.0
	for c := 0; c < d.N; c++ {
		g := grads[c]
		if g >= 0 {
			d.Q[c] = 0
			continue
		}
		dvel := env.Mul(g, d.Arealg[c])
		ql := env.Mul(qlcMonoq, env.Mul(env.Abs(dvel), d.SS[c]))
		qq := env.Mul(qqcMonoq, env.Mul(dvel, dvel))
		rho := env.Div(d.Mass[c], env.Mul(d.V[c], env.Div(1.0, float64(d.N))))
		d.Q[c] = env.Mul(rho, env.Add(ql, qq))
	}
}

// ApplyMaterialPropertiesForElems runs the EOS over all elements.
func ApplyMaterialPropertiesForElems(m *link.Machine, d *Domain) {
	env, done := m.Fn(symApplyMaterialPropertiesForElems)
	defer done()
	for c := 0; c < d.N; c++ {
		d.V[c] = env.Mul(d.V[c], 1.0)
	}
	EvalEOSForElems(m, d)
}

// EvalEOSForElems drives the energy/pressure/sound-speed solve.
func EvalEOSForElems(m *link.Machine, d *Domain) {
	env, done := m.Fn(symEvalEOSForElems)
	defer done()
	for c := 0; c < d.N; c++ {
		comp := env.Add(env.Sub(env.Div(1.0, d.V[c]), 1.0), 0)
		CalcEnergyForElems(m, d, c, comp)
		CalcSoundSpeedForElems(m, d, c)
	}
}

// CalcEnergyForElems advances the element energy (LULESH's predictor-
// corrector EOS energy iteration, condensed).
func CalcEnergyForElems(m *link.Machine, d *Domain, c int, comp float64) {
	env, done := m.Fn(symCalcEnergyForElems)
	defer done()
	const emin = 1e-9
	work := env.Mul(env.Add(d.P[c], d.Q[c]), env.Mul(0.5, d.Delv[c]))
	eNew := env.Sub(d.E[c], env.Mul(work, d.DT))
	if eNew < emin {
		eNew = emin
	}
	pNew := CalcPressureForElems(m, d, c, eNew, comp)
	// Corrector pass.
	work2 := env.Mul(env.Add(pNew, d.Q[c]), env.Mul(0.5, d.Delv[c]))
	eNew = env.Sub(eNew, env.Mul(env.Sub(work2, work), env.Mul(d.DT, 0.5)))
	if eNew < emin {
		eNew = emin
	}
	d.E[c] = eNew
	d.P[c] = CalcPressureForElems(m, d, c, eNew, comp)
}

// CalcPressureForElems evaluates the gamma-law pressure with the LULESH
// small-pressure cutoff branch.
func CalcPressureForElems(m *link.Machine, d *Domain, c int, e, comp float64) float64 {
	env, done := m.Fn(symCalcPressureForElems)
	defer done()
	const c1s = 2.0 / 3.0
	bvc := env.MulAdd(c1s, comp, 1.0)
	pNew := env.Mul(bvc, e)
	if math.Abs(pNew) < 1e-12 {
		pNew = 0
	}
	if pNew < 0 {
		pNew = 0 // pmin
	}
	return pNew
}

// CalcSoundSpeedForElems updates the element sound speed.
func CalcSoundSpeedForElems(m *link.Machine, d *Domain, c int) {
	env, done := m.Fn(symCalcSoundSpeedForElems)
	defer done()
	rho := env.Div(d.Mass[c], env.Div(d.V[c], float64(d.N)))
	ss2 := env.Div(env.Mul(1.4, d.P[c]), rho)
	if ss2 < 1e-6 {
		ss2 = 1e-6
	}
	d.SS[c] = env.Sqrt(ss2)
}

// UpdateVolumesForElems commits the relative volumes with the v_cut branch.
func UpdateVolumesForElems(m *link.Machine, d *Domain) {
	env, done := m.Fn(symUpdateVolumesForElems)
	defer done()
	const vcut = 1e-10
	for c := 0; c < d.N; c++ {
		v := env.Mul(d.V[c], 1.0)
		if math.Abs(env.Sub(v, 1.0)) < vcut {
			v = 1.0
		}
		d.V[c] = v
		// Length-scale correction consumed by the constraint pass.
		d.Arealg[c] = env.MulAdd(0.01, env.Mul(env.Sub(v, 1.0), d.Arealg[c]), d.Arealg[c])
	}
}

// CalcTimeConstraintsForElems refreshes the Courant and hydro limits.
func CalcTimeConstraintsForElems(m *link.Machine, d *Domain) {
	env, done := m.Fn(symCalcTimeConstraintsForElems)
	defer done()
	d.DTCourant = env.Mul(env.Add(CalcCourantConstraintForElems(m, d), 0), 1.0)
	d.DTHydro = env.Mul(env.Add(CalcHydroConstraintForElems(m, d), 0), 1.0)
}

// CalcCourantConstraintForElems returns min over elements of l/ss.
func CalcCourantConstraintForElems(m *link.Machine, d *Domain) float64 {
	env, done := m.Fn(symCalcCourantConstraintForElems)
	defer done()
	min := 1e20
	for c := 0; c < d.N; c++ {
		ssTerm := env.MulAdd(d.SS[c], d.SS[c], env.Mul(1e-3, d.Arealg[c]))
		cand := env.Div(d.Arealg[c], env.Sqrt(ssTerm))
		if cand < min {
			min = cand
		}
	}
	return min
}

// CalcHydroConstraintForElems returns min over elements of c/|delv|.
func CalcHydroConstraintForElems(m *link.Machine, d *Domain) float64 {
	env, done := m.Fn(symCalcHydroConstraintForElems)
	defer done()
	min := 1e20
	for c := 0; c < d.N; c++ {
		if d.Delv[c] == 0 {
			continue
		}
		cand := env.Div(0.05, env.Abs(env.Mul(d.Delv[c], 1.0)))
		if cand < min {
			min = cand
		}
	}
	return min
}

// The three functions below belong to code paths this workload does not
// exercise (multi-region materials, mesh output). Their injection sites are
// enumerated but never execute — the benign category of Table 5.

// AreaFace computes a quad face area (unreached here).
func AreaFace(m *link.Machine, x, y float64) float64 {
	env, done := m.Fn(symAreaFace)
	defer done()
	return env.MulAdd(x, y, env.Mul(x, y))
}

// CombineDerivs merges partial derivatives (unreached here).
func CombineDerivs(m *link.Machine, parts []float64) float64 {
	env, done := m.Fn(symCombineDerivs)
	defer done()
	return env.Sum(parts)
}

// CalcElemNodeNormals accumulates nodal normals (unreached here).
func CalcElemNodeNormals(m *link.Machine, x []float64) []float64 {
	env, done := m.Fn(symCalcElemNodeNormals)
	defer done()
	out := make([]float64, len(x))
	for i := range x {
		out[i] = AreaFace(m, x[i], env.Mul(x[i], 0.5))
	}
	return out
}
