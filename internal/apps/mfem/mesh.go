package mfem

import "repro/internal/link"

// Mesh1D is a 1-D mesh of n elements over [0, L] (mesh.cpp).
type Mesh1D struct {
	N int       // elements
	X []float64 // n+1 node coordinates
}

// Mesh2D is a structured quadrilateral mesh of nx×ny elements over
// [0,Lx]×[0,Ly] with lexicographic node numbering.
type Mesh2D struct {
	Nx, Ny int
	X, Y   []float64 // (nx+1)*(ny+1) node coordinates
	// ElemOrder optionally overrides the row-major element traversal used
	// by assembly. A domain decomposition (the MPI study, paper §3.6)
	// visits elements subdomain by subdomain, which changes the
	// accumulation order of shared nodes. nil means row-major.
	ElemOrder []int
}

// elementSeq returns the element indices (ey*Nx+ex) in traversal order.
func (me *Mesh2D) elementSeq() []int {
	if me.ElemOrder != nil {
		return me.ElemOrder
	}
	out := make([]int, me.Nx*me.Ny)
	for i := range out {
		out[i] = i
	}
	return out
}

// MakeCartesian1D builds a uniform 1-D mesh.
func MakeCartesian1D(m *link.Machine, n int, length float64) *Mesh1D {
	env, done := m.Fn(symMeshMakeCartesian1D)
	defer done()
	h := env.Div(length, float64(n))
	mesh := &Mesh1D{N: n, X: make([]float64, n+1)}
	for i := 0; i <= n; i++ {
		mesh.X[i] = env.Mul(float64(i), h)
	}
	mesh.X[n] = length
	return mesh
}

// MakeCartesian2D builds a uniform quadrilateral mesh.
func MakeCartesian2D(m *link.Machine, nx, ny int, lx, ly float64) *Mesh2D {
	env, done := m.Fn(symMeshMakeCartesian2D)
	defer done()
	hx := env.Div(lx, float64(nx))
	hy := env.Div(ly, float64(ny))
	nn := (nx + 1) * (ny + 1)
	mesh := &Mesh2D{Nx: nx, Ny: ny, X: make([]float64, nn), Y: make([]float64, nn)}
	for j := 0; j <= ny; j++ {
		for i := 0; i <= nx; i++ {
			k := j*(nx+1) + i
			mesh.X[k] = env.Mul(float64(i), hx)
			mesh.Y[k] = env.Mul(float64(j), hy)
		}
	}
	return mesh
}

// NumNodes2D returns the node count of a 2-D mesh.
func (me *Mesh2D) NumNodes() int { return (me.Nx + 1) * (me.Ny + 1) }

// ElemNodes returns the four node indices of element (ex,ey) in
// counterclockwise order.
func (me *Mesh2D) ElemNodes(ex, ey int) [4]int {
	s := me.Nx + 1
	n0 := ey*s + ex
	return [4]int{n0, n0 + 1, n0 + 1 + s, n0 + s}
}

// ElementSize1D returns the width of element e.
func ElementSize1D(m *link.Machine, mesh *Mesh1D, e int) float64 {
	env, done := m.Fn(symMeshElementSize)
	defer done()
	return env.Sub(mesh.X[e+1], mesh.X[e])
}

// PerturbNodes1D displaces interior nodes by amp·x·(1-x) — a smooth,
// boundary-preserving perturbation used by tests that need non-uniform
// meshes.
func PerturbNodes1D(m *link.Machine, mesh *Mesh1D, amp float64) {
	env, done := m.Fn(symMeshPerturbNodes)
	defer done()
	for i := 1; i < mesh.N; i++ {
		x := mesh.X[i]
		bump := env.Mul(env.Mul(amp, x), env.Sub(1, x))
		mesh.X[i] = env.Add(x, bump)
	}
}
