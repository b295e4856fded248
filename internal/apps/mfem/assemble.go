package mfem

import "repro/internal/link"

// Element integrators (bilininteg.cpp) and global assembly
// (bilinearform.cpp, linearform.cpp).

// Coeff1D is a scalar coefficient of one variable evaluated through the
// machine (so its own symbol's semantics apply).
type Coeff1D func(m *link.Machine, x float64) float64

// Coeff2D is a scalar coefficient of two variables.
type Coeff2D func(m *link.Machine, x, y float64) float64

// One1D is the constant-1 coefficient.
func One1D(*link.Machine, float64) float64 { return 1 }

// One2D is the constant-1 coefficient in two variables.
func One2D(*link.Machine, float64, float64) float64 { return 1 }

// MassElement1D computes the 2×2 element mass matrix ∫ c φi φj over
// element e.
func MassElement1D(m *link.Machine, mesh *Mesh1D, e int, c Coeff1D) *Dense {
	env, done := m.Fn(symMassIntegratorElement1D)
	defer done()
	pts, wts := Gauss2(m)
	w := IsoWeight1D(m, mesh, e)
	ke := NewDense(2, 2)
	for q := range pts {
		n0, n1 := Shape1D(m, pts[q])
		x := IsoMap1D(m, mesh, e, pts[q])
		cv := c(m, x)
		scale := env.Mul(env.Mul(wts[q], w), cv)
		sh := [2]float64{n0, n1}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				ke.Set(i, j, env.MulAdd(scale, env.Mul(sh[i], sh[j]), ke.At(i, j)))
			}
		}
	}
	return ke
}

// DiffusionElement1D computes the 2×2 element stiffness matrix
// ∫ c φi' φj' over element e.
func DiffusionElement1D(m *link.Machine, mesh *Mesh1D, e int, c Coeff1D) *Dense {
	env, done := m.Fn(symDiffusionIntegratorElement1D)
	defer done()
	pts, wts := Gauss2(m)
	w := IsoWeight1D(m, mesh, e)
	d0, d1 := DShape1D(m)
	// Physical derivatives scale by 1/w.
	g0, g1 := env.Div(d0, w), env.Div(d1, w)
	ke := NewDense(2, 2)
	for q := range pts {
		x := IsoMap1D(m, mesh, e, pts[q])
		cv := c(m, x)
		scale := env.Mul(env.Mul(wts[q], w), cv)
		g := [2]float64{g0, g1}
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				ke.Set(i, j, env.MulAdd(scale, env.Mul(g[i], g[j]), ke.At(i, j)))
			}
		}
	}
	return ke
}

// MassElement2D computes the 4×4 element mass matrix on a quad element,
// row-major.
func MassElement2D(m *link.Machine, mesh *Mesh2D, ex, ey int, c Coeff2D) (ke [16]float64) {
	env, done := m.Fn(symMassIntegratorElement2D)
	defer done()
	pts, wts := Gauss2(m)
	jw := IsoWeight2D(m, mesh, ex, ey)
	for qx := range pts {
		for qy := range pts {
			sh := Shape2D(m, pts[qx], pts[qy])
			px, py := IsoMap2D(m, mesh, ex, ey, pts[qx], pts[qy])
			cv := c(m, px, py)
			scale := env.Mul(env.Mul(env.Mul(wts[qx], wts[qy]), jw), cv)
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					ke[4*i+j] = env.MulAdd(scale, env.Mul(sh[i], sh[j]), ke[4*i+j])
				}
			}
		}
	}
	return ke
}

// DiffusionElement2D computes the 4×4 element stiffness matrix on a quad,
// row-major.
func DiffusionElement2D(m *link.Machine, mesh *Mesh2D, ex, ey int, c Coeff2D) (ke [16]float64) {
	env, done := m.Fn(symDiffusionIntegratorElement2D)
	defer done()
	pts, wts := Gauss2(m)
	nodes := mesh.ElemNodes(ex, ey)
	hx := env.Sub(mesh.X[nodes[1]], mesh.X[nodes[0]])
	hy := env.Sub(mesh.Y[nodes[3]], mesh.Y[nodes[0]])
	jw := env.Mul(hx, hy)
	for qx := range pts {
		for qy := range pts {
			ds := DShape2D(m, pts[qx], pts[qy])
			px, py := IsoMap2D(m, mesh, ex, ey, pts[qx], pts[qy])
			cv := c(m, px, py)
			scale := env.Mul(env.Mul(env.Mul(wts[qx], wts[qy]), jw), cv)
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					// Physical gradients: d/dx scales by 1/hx, d/dy by 1/hy.
					gx := env.Mul(env.Div(ds[i][0], hx), env.Div(ds[j][0], hx))
					gy := env.Mul(env.Div(ds[i][1], hy), env.Div(ds[j][1], hy))
					ke[4*i+j] = env.MulAdd(scale, env.Add(gx, gy), ke[4*i+j])
				}
			}
		}
	}
	return ke
}

// ConvectionElement1D computes the 2×2 element convection matrix
// ∫ v φi' φj for constant velocity v.
func ConvectionElement1D(m *link.Machine, mesh *Mesh1D, e int, v float64) *Dense {
	env, done := m.Fn(symConvectionIntegratorElement1D)
	defer done()
	pts, wts := Gauss2(m)
	w := IsoWeight1D(m, mesh, e)
	d0, d1 := DShape1D(m)
	g := [2]float64{env.Div(d0, w), env.Div(d1, w)}
	ke := NewDense(2, 2)
	for q := range pts {
		n0, n1 := Shape1D(m, pts[q])
		sh := [2]float64{n0, n1}
		scale := env.Mul(env.Mul(wts[q], w), v)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				ke.Set(i, j, env.MulAdd(scale, env.Mul(g[i], sh[j]), ke.At(i, j)))
			}
		}
	}
	return ke
}

// scatter adds the element matrix ke (row-major, len(dofs) squared
// entries) into the global builder at the given dofs.
func scatter(m *link.Machine, b *csrBuilder, dofs []int, ke []float64) {
	env, done := m.Fn(symScatterElement)
	defer done()
	n := len(dofs)
	for i, gi := range dofs {
		for j, gj := range dofs {
			// The accumulate below goes through the env so that an
			// optimizer rewriting this file can reorder it.
			b.add(gi, gj, env.Add(ke[i*n+j], 0))
		}
	}
}

// AssembleMass1D assembles the global mass matrix of a 1-D mesh.
func AssembleMass1D(m *link.Machine, mesh *Mesh1D, c Coeff1D) *CSR {
	_, done := m.Fn(symBilinearFormAssembleMass1D)
	defer done()
	b := newCSRBuilder(mesh.N + 1)
	for e := 0; e < mesh.N; e++ {
		ke := MassElement1D(m, mesh, e, c)
		scatter(m, b, []int{e, e + 1}, ke.A)
	}
	return b.build()
}

// AssembleDiffusion1D assembles the global stiffness matrix of a 1-D mesh
// with homogeneous Dirichlet conditions applied to the boundary rows.
func AssembleDiffusion1D(m *link.Machine, mesh *Mesh1D, c Coeff1D) *CSR {
	_, done := m.Fn(symBilinearFormAssembleDiffusion1D)
	defer done()
	n := mesh.N + 1
	b := newCSRBuilder(n)
	for e := 0; e < mesh.N; e++ {
		ke := DiffusionElement1D(m, mesh, e, c)
		scatter(m, b, []int{e, e + 1}, ke.A)
	}
	applyDirichlet(b, []int{0, n - 1})
	return b.build()
}

// AssembleMass2D assembles the global 2-D mass matrix.
func AssembleMass2D(m *link.Machine, mesh *Mesh2D, c Coeff2D) *CSR {
	_, done := m.Fn(symBilinearFormAssembleMass2D)
	defer done()
	b := newCSRBuilder(mesh.NumNodes())
	for _, e := range mesh.elementSeq() {
		ex, ey := e%mesh.Nx, e/mesh.Nx
		ke := MassElement2D(m, mesh, ex, ey, c)
		nd := mesh.ElemNodes(ex, ey)
		scatter(m, b, nd[:], ke[:])
	}
	return b.build()
}

// AssembleDiffusion2D assembles the global 2-D stiffness matrix with
// Dirichlet conditions on the whole boundary.
func AssembleDiffusion2D(m *link.Machine, mesh *Mesh2D, c Coeff2D) *CSR {
	_, done := m.Fn(symBilinearFormAssembleDiffusion2D)
	defer done()
	b := newCSRBuilder(mesh.NumNodes())
	for _, e := range mesh.elementSeq() {
		ex, ey := e%mesh.Nx, e/mesh.Nx
		ke := DiffusionElement2D(m, mesh, ex, ey, c)
		nd := mesh.ElemNodes(ex, ey)
		scatter(m, b, nd[:], ke[:])
	}
	applyDirichlet(b, boundaryNodes(mesh))
	return b.build()
}

// applyDirichlet replaces the given rows with identity rows.
func applyDirichlet(b *csrBuilder, rows []int) {
	for _, r := range rows {
		b.rows[r] = append(b.rows[r][:0], csrEntry{col: r, val: 1})
	}
}

// boundaryNodes lists the boundary node indices of a 2-D mesh.
func boundaryNodes(mesh *Mesh2D) []int {
	var out []int
	s := mesh.Nx + 1
	for j := 0; j <= mesh.Ny; j++ {
		for i := 0; i <= mesh.Nx; i++ {
			if i == 0 || j == 0 || i == mesh.Nx || j == mesh.Ny {
				out = append(out, j*s+i)
			}
		}
	}
	return out
}

// AssembleRHS1D assembles the load vector ∫ f φi with a 3-point rule,
// zeroing Dirichlet rows.
func AssembleRHS1D(m *link.Machine, mesh *Mesh1D, f Coeff1D) []float64 {
	env, done := m.Fn(symLinearFormAssemble1D)
	defer done()
	n := mesh.N + 1
	rhs := make([]float64, n)
	pts, wts := Gauss3(m)
	for e := 0; e < mesh.N; e++ {
		w := IsoWeight1D(m, mesh, e)
		for q := range pts {
			n0, n1 := Shape1D(m, pts[q])
			x := IsoMap1D(m, mesh, e, pts[q])
			fv := f(m, x)
			scale := env.Mul(env.Mul(wts[q], w), fv)
			rhs[e] = env.MulAdd(scale, n0, rhs[e])
			rhs[e+1] = env.MulAdd(scale, n1, rhs[e+1])
		}
	}
	rhs[0], rhs[n-1] = 0, 0
	return rhs
}

// AssembleRHS2D assembles the 2-D load vector, zeroing boundary rows.
func AssembleRHS2D(m *link.Machine, mesh *Mesh2D, f Coeff2D) []float64 {
	env, done := m.Fn(symLinearFormAssemble2D)
	defer done()
	rhs := make([]float64, mesh.NumNodes())
	pts, wts := Gauss2(m)
	for _, e := range mesh.elementSeq() {
		ex, ey := e%mesh.Nx, e/mesh.Nx
		nd := mesh.ElemNodes(ex, ey)
		jw := IsoWeight2D(m, mesh, ex, ey)
		for qx := range pts {
			for qy := range pts {
				sh := Shape2D(m, pts[qx], pts[qy])
				px, py := IsoMap2D(m, mesh, ex, ey, pts[qx], pts[qy])
				fv := f(m, px, py)
				scale := env.Mul(env.Mul(env.Mul(wts[qx], wts[qy]), jw), fv)
				for k := 0; k < 4; k++ {
					rhs[nd[k]] = env.MulAdd(scale, sh[k], rhs[nd[k]])
				}
			}
		}
	}
	for _, bn := range boundaryNodes(mesh) {
		rhs[bn] = 0
	}
	return rhs
}
