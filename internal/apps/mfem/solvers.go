package mfem

import "repro/internal/link"

// Iterative solvers (solvers.cpp), grid functions (gridfunc.cpp), and time
// integrators (ode.cpp).

// CGSolve runs unpreconditioned conjugate gradients on A·x = b until
// ||r|| <= tol·||b|| or maxIter iterations, updating x in place. It returns
// the iteration count. The residual-driven branch is the mechanism by which
// tiny rounding changes alter the whole trajectory (MFEM example 8's
// divergent convergence).
func CGSolve(m *link.Machine, a *CSR, b, x []float64, tol float64, maxIter int) int {
	env, done := m.Fn(symCGSolve)
	defer done()
	n := a.N
	r := make([]float64, n)
	SpMult(m, a, x, r)
	Subtract(m, r, b, r)
	p := append([]float64(nil), r...)
	ap := make([]float64, n)
	bnorm := Norml2(m, b)
	if bnorm == 0 {
		bnorm = 1
	}
	rsold := Dot(m, r, r)
	it := 0
	for ; it < maxIter; it++ {
		if env.Sqrt(rsold) <= env.Mul(tol, bnorm) {
			break
		}
		SpMult(m, a, p, ap)
		alpha := env.Div(rsold, Dot(m, p, ap))
		Axpy(m, alpha, p, x)
		Axpy(m, env.Neg(alpha), ap, r)
		rsnew := Dot(m, r, r)
		beta := env.Div(rsnew, rsold)
		for i := range p {
			p[i] = env.MulAdd(beta, p[i], r[i])
		}
		rsold = rsnew
	}
	return it
}

// PCGSolve runs Jacobi-preconditioned conjugate gradients.
func PCGSolve(m *link.Machine, a *CSR, b, x []float64, tol float64, maxIter int) int {
	env, done := m.Fn(symPCGSolve)
	defer done()
	n := a.N
	diag := make([]float64, n)
	SpGetDiag(m, a, diag)
	prec := func(dst, src []float64) {
		for i := range dst {
			if diag[i] != 0 {
				dst[i] = env.Div(src[i], diag[i])
			} else {
				dst[i] = src[i]
			}
		}
	}
	r := make([]float64, n)
	SpMult(m, a, x, r)
	Subtract(m, r, b, r)
	z := make([]float64, n)
	prec(z, r)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	bnorm := Norml2(m, b)
	if bnorm == 0 {
		bnorm = 1
	}
	rz := Dot(m, r, z)
	it := 0
	for ; it < maxIter; it++ {
		if Norml2(m, r) <= env.Mul(tol, bnorm) {
			break
		}
		SpMult(m, a, p, ap)
		alpha := env.Div(rz, Dot(m, p, ap))
		Axpy(m, alpha, p, x)
		Axpy(m, env.Neg(alpha), ap, r)
		prec(z, r)
		rznew := Dot(m, r, z)
		beta := env.Div(rznew, rz)
		for i := range p {
			p[i] = env.MulAdd(beta, p[i], z[i])
		}
		rz = rznew
	}
	return it
}

// JacobiIterate runs k damped-Jacobi sweeps.
func JacobiIterate(m *link.Machine, a *CSR, b, x []float64, w float64, k int) {
	_, done := m.Fn(symJacobiIterate)
	defer done()
	for i := 0; i < k; i++ {
		JacobiSmooth(m, a, b, x, w)
	}
}

// PowerIterationRun estimates the dominant eigenvalue of A with k steps of
// normalized power iteration, returning the Rayleigh-quotient estimate.
func PowerIterationRun(m *link.Machine, a *CSR, x []float64, k int) float64 {
	_, done := m.Fn(symPowerIterationRun)
	defer done()
	y := make([]float64, a.N)
	for i := 0; i < k; i++ {
		SpMult(m, a, x, y)
		copy(x, y)
		Normalize(m, x)
	}
	SpMult(m, a, x, y)
	return Dot(m, x, y)
}

// Project1D evaluates a coefficient at the mesh nodes.
func Project1D(m *link.Machine, mesh *Mesh1D, c Coeff1D) []float64 {
	_, done := m.Fn(symGridFunctionProject1D)
	defer done()
	out := make([]float64, mesh.N+1)
	for i := range out {
		out[i] = c(m, mesh.X[i])
	}
	return out
}

// Project2D evaluates a coefficient at the 2-D mesh nodes.
func Project2D(m *link.Machine, mesh *Mesh2D, c Coeff2D) []float64 {
	_, done := m.Fn(symGridFunctionProject2D)
	defer done()
	out := make([]float64, mesh.NumNodes())
	for i := range out {
		out[i] = c(m, mesh.X[i], mesh.Y[i])
	}
	return out
}

// L2Error returns ||u - v||₂ through the library kernels.
func L2Error(m *link.Machine, u, v []float64) float64 {
	_, done := m.Fn(symGridFunctionL2Error)
	defer done()
	d := make([]float64, len(u))
	Subtract(m, d, u, v)
	return Norml2(m, d)
}

// RK2Step advances u by one midpoint-rule step of du/dt = f(u).
func RK2Step(m *link.Machine, u []float64, dt float64, f func(u, du []float64)) {
	env, done := m.Fn(symRK2Step)
	defer done()
	n := len(u)
	k1 := make([]float64, n)
	f(u, k1)
	mid := append([]float64(nil), u...)
	Axpy(m, env.Mul(0.5, dt), k1, mid)
	k2 := make([]float64, n)
	f(mid, k2)
	Axpy(m, dt, k2, u)
}

// Upwind returns the upwind flux v>0 ? v*ul : v*ur. The branch on a
// computed value makes downstream results jump when rounding flips it.
func Upwind(m *link.Machine, v, ul, ur float64) float64 {
	env, done := m.Fn(symUpwindFlux)
	defer done()
	if v > 0 {
		return env.Mul(v, ul)
	}
	return env.Mul(v, ur)
}
