package mfem

import "repro/internal/link"

// Finite elements (fe.cpp), quadrature (quadrature.cpp), element
// transformations (eltrans.cpp), and coefficients (coeff.cpp).

// Shape1D evaluates the two linear hat functions at reference point x∈[0,1].
func Shape1D(m *link.Machine, x float64) (n0, n1 float64) {
	env, done := m.Fn(symFEShape1D)
	defer done()
	return env.Sub(1, x), x
}

// DShape1D returns the reference derivatives of the linear hats.
func DShape1D(m *link.Machine) (d0, d1 float64) {
	_, done := m.Fn(symFEDShape1D)
	defer done()
	return -1, 1
}

// Shape2D evaluates the four bilinear shape functions at (x,y)∈[0,1]².
func Shape2D(m *link.Machine, x, y float64) [4]float64 {
	env, done := m.Fn(symFEShape2D)
	defer done()
	n0x, n1x := Shape1D(m, x)
	n0y, n1y := Shape1D(m, y)
	return [4]float64{
		env.Mul(n0x, n0y),
		env.Mul(n1x, n0y),
		env.Mul(n1x, n1y),
		env.Mul(n0x, n1y),
	}
}

// DShape2D returns the reference gradients of the bilinear shape functions
// as a 4×2 array [shape][dx,dy].
func DShape2D(m *link.Machine, x, y float64) [4][2]float64 {
	env, done := m.Fn(symFEDShape2D)
	defer done()
	n0x, n1x := Shape1D(m, x)
	n0y, n1y := Shape1D(m, y)
	d0, d1 := DShape1D(m)
	return [4][2]float64{
		{env.Mul(d0, n0y), env.Mul(n0x, d0)},
		{env.Mul(d1, n0y), env.Mul(n1x, d0)},
		{env.Mul(d1, n1y), env.Mul(n1x, d1)},
		{env.Mul(d0, n1y), env.Mul(n0x, d1)},
	}
}

// Gauss2 returns the 2-point Gauss-Legendre rule on [0,1].
func Gauss2(m *link.Machine) (pts, wts [2]float64) {
	env, done := m.Fn(symQuadRuleGauss2)
	defer done()
	r := env.Div(1, env.Mul(env.Sqrt(3), 2)) // 1/(2*sqrt(3))
	pts[0] = env.Sub(0.5, r)
	pts[1] = env.Add(0.5, r)
	wts[0], wts[1] = 0.5, 0.5
	return pts, wts
}

// Gauss3 returns the 3-point Gauss-Legendre rule on [0,1].
func Gauss3(m *link.Machine) (pts, wts [3]float64) {
	env, done := m.Fn(symQuadRuleGauss3)
	defer done()
	r := env.Mul(0.5, env.Sqrt(env.Div(3, 5)))
	pts[0] = env.Sub(0.5, r)
	pts[1] = 0.5
	pts[2] = env.Add(0.5, r)
	w := env.Div(5, 18)
	wts[0], wts[2] = w, w
	wts[1] = env.Div(4, 9)
	return pts, wts
}

// MapToInterval maps a reference point t∈[0,1] onto [a,b].
func MapToInterval(m *link.Machine, t, a, b float64) float64 {
	env, done := m.Fn(symQuadRuleMapToInterval)
	defer done()
	return env.MulAdd(t, env.Sub(b, a), a)
}

// IsoMap1D maps a reference point inside element e to physical space.
func IsoMap1D(m *link.Machine, mesh *Mesh1D, e int, t float64) float64 {
	env, done := m.Fn(symIsoTransMap1D)
	defer done()
	return env.MulAdd(t, env.Sub(mesh.X[e+1], mesh.X[e]), mesh.X[e])
}

// IsoWeight1D returns the 1-D Jacobian (element width).
func IsoWeight1D(m *link.Machine, mesh *Mesh1D, e int) float64 {
	env, done := m.Fn(symIsoTransWeight1D)
	defer done()
	return env.Sub(mesh.X[e+1], mesh.X[e])
}

// IsoMap2D maps a reference point in element (ex,ey) to physical space
// using the bilinear shape functions.
func IsoMap2D(m *link.Machine, mesh *Mesh2D, ex, ey int, x, y float64) (px, py float64) {
	env, done := m.Fn(symIsoTransMap2D)
	defer done()
	sh := Shape2D(m, x, y)
	nodes := mesh.ElemNodes(ex, ey)
	var xs, ys [4]float64
	for k, n := range nodes {
		xs[k] = mesh.X[n]
		ys[k] = mesh.Y[n]
	}
	return env.Dot(sh[:], xs[:]), env.Dot(sh[:], ys[:])
}

// IsoWeight2D returns the Jacobian determinant of the bilinear map for a
// structured element (constant per element on a Cartesian mesh).
func IsoWeight2D(m *link.Machine, mesh *Mesh2D, ex, ey int) float64 {
	env, done := m.Fn(symIsoTransWeight2D)
	defer done()
	nodes := mesh.ElemNodes(ex, ey)
	dx := env.Sub(mesh.X[nodes[1]], mesh.X[nodes[0]])
	dy := env.Sub(mesh.Y[nodes[3]], mesh.Y[nodes[0]])
	return env.Mul(dx, dy)
}

// CoeffPoly evaluates the polynomial coefficient 1 + x(2 + 3x) used by the
// projection examples (Horner form: mul-add chain).
func CoeffPoly(m *link.Machine, x float64) float64 {
	env, done := m.Fn(symCoefficientPoly)
	defer done()
	return env.MulAdd(x, env.MulAdd(x, 3, 2), 1)
}

// CoeffRunge evaluates 1/(1+25x²).
func CoeffRunge(m *link.Machine, x float64) float64 {
	env, done := m.Fn(symCoefficientRunge)
	defer done()
	return env.Div(1, env.MulAdd(env.Mul(25, x), x, 1))
}

// CoeffSqrtRadius evaluates sqrt(x²+y²+0.25): a libm-bearing coefficient,
// so examples using it pick up Intel link-step variability.
func CoeffSqrtRadius(m *link.Machine, x, y float64) float64 {
	env, done := m.Fn(symCoefficientSqrtRadius)
	defer done()
	return env.Sqrt(env.MulAdd(x, x, env.MulAdd(y, y, 0.25)))
}

// CoeffExpDecay evaluates exp(-2x): the second libm-bearing coefficient.
func CoeffExpDecay(m *link.Machine, x float64) float64 {
	env, done := m.Fn(symCoefficientExpDecay)
	defer done()
	return env.Exp(env.Mul(-2, x))
}
