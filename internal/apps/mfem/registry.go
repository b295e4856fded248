// Package mfem is a miniature finite-element library in the shape of the
// MFEM library the paper studies (§3.1–§3.3): vectors, dense and sparse
// matrices, Cartesian meshes, low-order elements, element integrators,
// global assembly, iterative solvers, and 19 end-to-end examples used as
// FLiT test cases. Every function is registered as a symbol of a simulated
// C++ source tree so the compilation model can assign it floating-point
// semantics and Bisect can search over its files and symbols.
//
// All floating-point arithmetic flows through the fp.Env of the function's
// linked compilation, obtained from the link.Machine at function entry
// through the function's registered symbol:
//
//	env, done := m.Fn(symVectorDot)
//	defer done()
package mfem

import (
	"repro/internal/prog"
	"sync"
)

var (
	buildOnce sync.Once
	theProg   *prog.Program
)

// Program returns the (singleton) static description of the mini-MFEM
// source tree. The same instance must be used everywhere: symbol pointers
// are identity keys in the cost model.
func Program() *prog.Program {
	buildOnce.Do(func() { theProg = buildProgram() })
	return theProg
}

// The library's symbols, one per simulated function. Each is also the
// handle its implementation enters through link.Machine.Fn; buildProgram
// registers them, so they are bound to the program once Program has run.
var (
	// vector.cpp
	symVectorDot = &prog.Symbol{Name: "Vector::Dot", Exported: true, Work: 3, FPOps: 2, SLOC: 9,
		Features: prog.Features{Reduction: true, MulAdd: true}}
	symVectorNorml2 = &prog.Symbol{Name: "Vector::Norml2", Exported: true, Work: 2, FPOps: 3, SLOC: 7,
		Features: prog.Features{Reduction: true, MulAdd: true, SqrtLibm: true},
		Callees:  []string{"Vector::Dot"}}
	symVectorSum = &prog.Symbol{Name: "Vector::Sum", Exported: true, Work: 2, FPOps: 1, SLOC: 7,
		Features: prog.Features{Reduction: true}}
	symVectorAdd      = &prog.Symbol{Name: "Vector::Add", Exported: true, Work: 1, FPOps: 1, SLOC: 6}
	symVectorSubtract = &prog.Symbol{Name: "Vector::Subtract", Exported: true, Work: 1, FPOps: 1, SLOC: 6}
	symVectorScale    = &prog.Symbol{Name: "Vector::Scale", Exported: true, Work: 1, FPOps: 1, SLOC: 5}
	symVectorAxpy     = &prog.Symbol{Name: "Vector::Axpy", Exported: true, Work: 2, FPOps: 2, SLOC: 6,
		Features: prog.Features{MulAdd: true}}
	symVectorNormalize = &prog.Symbol{Name: "Vector::Normalize", Exported: true, Work: 2, FPOps: 4, SLOC: 9,
		Features: prog.Features{SqrtLibm: true, Division: true},
		Callees:  []string{"Vector::Norml2", "Vector::Scale"}}
	symVectorDistanceTo = &prog.Symbol{Name: "Vector::DistanceTo", Exported: true, Work: 2, FPOps: 4, SLOC: 9,
		Features: prog.Features{Reduction: true, SqrtLibm: true}}
	symVectorMax = &prog.Symbol{Name: "Vector::Max", Exported: true, Work: 1, FPOps: 0, SLOC: 8}

	// densemat.cpp
	symDenseMatrixMult = &prog.Symbol{Name: "DenseMatrix::Mult", Exported: true, Work: 4, FPOps: 2, SLOC: 12,
		Features: prog.Features{Reduction: true, MulAdd: true}}
	symDenseMatrixMultTranspose = &prog.Symbol{Name: "DenseMatrix::MultTranspose", Exported: true, Work: 4, FPOps: 2, SLOC: 12,
		Features: prog.Features{Reduction: true, MulAdd: true}}
	symDenseMatrixAddMult_a_AAt = &prog.Symbol{Name: "DenseMatrix::AddMult_a_AAt", Exported: true, Work: 5, FPOps: 3, SLOC: 14,
		Features: prog.Features{Reduction: true, MulAdd: true, Hot: true}}
	symDenseMatrixDet2 = &prog.Symbol{Name: "DenseMatrix::Det2", Exported: true, Work: 1, FPOps: 3, SLOC: 5,
		Features: prog.Features{MulAdd: true}}
	symDenseMatrixTrace = &prog.Symbol{Name: "DenseMatrix::Trace", Exported: true, Work: 1, FPOps: 1, SLOC: 6,
		Features: prog.Features{Reduction: true}}
	symDenseMatrixFNorm = &prog.Symbol{Name: "DenseMatrix::FNorm", Exported: true, Work: 2, FPOps: 3, SLOC: 8,
		Features: prog.Features{Reduction: true, SqrtLibm: true}}
	symDenseMatrixInvert2x2 = &prog.Symbol{Name: "DenseMatrix::Invert2x2", Exported: true, Work: 1, FPOps: 7, SLOC: 10,
		Features: prog.Features{Division: true, MulAdd: true},
		Callees:  []string{"DenseMatrix::Det2"}}
	symDenseMatrixLSolve = &prog.Symbol{Name: "DenseMatrix::LSolve", Exported: true, Work: 3, FPOps: 6, SLOC: 22,
		Features: prog.Features{Division: true, MulAdd: true, Reduction: true}}

	// sparsemat.cpp
	symSparseMatrixMult = &prog.Symbol{Name: "SparseMatrix::Mult", Exported: true, Work: 5, FPOps: 2, SLOC: 13,
		Features: prog.Features{Reduction: true, MulAdd: true}}
	symSparseMatrixAddMult = &prog.Symbol{Name: "SparseMatrix::AddMult", Exported: true, Work: 4, FPOps: 2, SLOC: 12,
		Features: prog.Features{Reduction: true, MulAdd: true}}
	symSparseMatrixInnerProduct = &prog.Symbol{Name: "SparseMatrix::InnerProduct", Exported: true, Work: 4, FPOps: 4, SLOC: 11,
		Features: prog.Features{Reduction: true, MulAdd: true},
		Callees:  []string{"SparseMatrix::Mult", "Vector::Dot"}}
	symSparseMatrixGetDiag      = &prog.Symbol{Name: "SparseMatrix::GetDiag", Exported: true, Work: 1, FPOps: 0, SLOC: 9}
	symSparseMatrixJacobiSmooth = &prog.Symbol{Name: "SparseMatrix::JacobiSmooth", Exported: true, Work: 4, FPOps: 4, SLOC: 15,
		Features: prog.Features{Division: true, Reduction: true, MulAdd: true}}
	symSparseMatrixGaussSeidel = &prog.Symbol{Name: "SparseMatrix::GaussSeidel", Exported: true, Work: 4, FPOps: 4, SLOC: 16,
		Features: prog.Features{Division: true, Reduction: true, MulAdd: true}}

	// mesh.cpp
	symMeshMakeCartesian1D = &prog.Symbol{Name: "Mesh::MakeCartesian1D", Exported: true, Work: 1, FPOps: 2, SLOC: 12,
		Features: prog.Features{Division: true, MulAdd: true}}
	symMeshMakeCartesian2D = &prog.Symbol{Name: "Mesh::MakeCartesian2D", Exported: true, Work: 2, FPOps: 4, SLOC: 18,
		Features: prog.Features{Division: true, MulAdd: true}}
	symMeshElementSize = &prog.Symbol{Name: "Mesh::ElementSize", Exported: true, Work: 1, FPOps: 1, SLOC: 5,
		Features: prog.Features{Division: true}}
	symMeshPerturbNodes = &prog.Symbol{Name: "Mesh::PerturbNodes", Exported: true, Work: 1, FPOps: 3, SLOC: 10,
		Features: prog.Features{MulAdd: true, ShortExpr: true}}

	// fe.cpp
	symFEShape1D = &prog.Symbol{Name: "FE::Shape1D", Exported: true, Work: 1, FPOps: 2, SLOC: 6,
		Features: prog.Features{ShortExpr: true}}
	symFEDShape1D = &prog.Symbol{Name: "FE::DShape1D", Exported: true, Work: 1, FPOps: 1, SLOC: 5}
	symFEShape2D  = &prog.Symbol{Name: "FE::Shape2D", Exported: true, Work: 1, FPOps: 4, SLOC: 9,
		Features: prog.Features{MulAdd: true, ShortExpr: true},
		Callees:  []string{"FE::Shape1D"}}
	symFEDShape2D = &prog.Symbol{Name: "FE::DShape2D", Exported: true, Work: 1, FPOps: 4, SLOC: 10,
		Callees: []string{"FE::Shape1D", "FE::DShape1D"}}

	// quadrature.cpp
	symQuadRuleGauss2 = &prog.Symbol{Name: "QuadRule::Gauss2", Exported: true, Work: 1, FPOps: 2, SLOC: 8,
		Features: prog.Features{SqrtLibm: true, Division: true}}
	symQuadRuleGauss3 = &prog.Symbol{Name: "QuadRule::Gauss3", Exported: true, Work: 1, FPOps: 3, SLOC: 10,
		Features: prog.Features{SqrtLibm: true, Division: true}}
	symQuadRuleMapToInterval = &prog.Symbol{Name: "QuadRule::MapToInterval", Exported: true, Work: 1, FPOps: 2, SLOC: 6,
		Features: prog.Features{MulAdd: true, ShortExpr: true}}

	// eltrans.cpp
	symIsoTransMap1D = &prog.Symbol{Name: "IsoTrans::Map1D", Exported: true, Work: 1, FPOps: 2, SLOC: 6,
		Features: prog.Features{MulAdd: true}}
	symIsoTransWeight1D = &prog.Symbol{Name: "IsoTrans::Weight1D", Exported: true, Work: 1, FPOps: 1, SLOC: 4}
	symIsoTransMap2D    = &prog.Symbol{Name: "IsoTrans::Map2D", Exported: true, Work: 2, FPOps: 6, SLOC: 12,
		Features: prog.Features{MulAdd: true, Reduction: true},
		Callees:  []string{"FE::Shape2D"}}
	symIsoTransWeight2D = &prog.Symbol{Name: "IsoTrans::Weight2D", Exported: true, Work: 2, FPOps: 5, SLOC: 10,
		Features: prog.Features{MulAdd: true}}

	// coeff.cpp
	symCoefficientPoly = &prog.Symbol{Name: "Coefficient::Poly", Exported: true, Work: 1, FPOps: 3, SLOC: 5,
		Features: prog.Features{MulAdd: true, ShortExpr: true}}
	symCoefficientRunge = &prog.Symbol{Name: "Coefficient::Runge", Exported: true, Work: 1, FPOps: 3, SLOC: 5,
		Features: prog.Features{Division: true, MulAdd: true}}
	symCoefficientSqrtRadius = &prog.Symbol{Name: "Coefficient::SqrtRadius", Exported: true, Work: 1, FPOps: 3, SLOC: 6,
		Features: prog.Features{SqrtLibm: true, MulAdd: true}}
	symCoefficientExpDecay = &prog.Symbol{Name: "Coefficient::ExpDecay", Exported: true, Work: 1, FPOps: 2, SLOC: 5,
		Features: prog.Features{SqrtLibm: true}}

	// bilininteg.cpp
	symMassIntegratorElement1D = &prog.Symbol{Name: "MassIntegrator::Element1D", Exported: true, Work: 3, FPOps: 4, SLOC: 18,
		Features: prog.Features{Reduction: true, MulAdd: true},
		Callees:  []string{"FE::Shape1D", "QuadRule::Gauss2", "IsoTrans::Weight1D"}}
	symMassIntegratorElement2D = &prog.Symbol{Name: "MassIntegrator::Element2D", Exported: true, Work: 4, FPOps: 5, SLOC: 22,
		Features: prog.Features{Reduction: true, MulAdd: true},
		Callees:  []string{"FE::Shape2D", "QuadRule::Gauss2", "IsoTrans::Weight2D"}}
	symDiffusionIntegratorElement1D = &prog.Symbol{Name: "DiffusionIntegrator::Element1D", Exported: true, Work: 3, FPOps: 4, SLOC: 18,
		Features: prog.Features{Reduction: true, MulAdd: true, Division: true},
		Callees:  []string{"FE::DShape1D", "QuadRule::Gauss2", "IsoTrans::Weight1D"}}
	symDiffusionIntegratorElement2D = &prog.Symbol{Name: "DiffusionIntegrator::Element2D", Exported: true, Work: 4, FPOps: 6, SLOC: 24,
		Features: prog.Features{Reduction: true, MulAdd: true, Division: true},
		Callees:  []string{"FE::DShape2D", "QuadRule::Gauss2", "IsoTrans::Weight2D"}}
	symConvectionIntegratorElement1D = &prog.Symbol{Name: "ConvectionIntegrator::Element1D", Exported: true, Work: 3, FPOps: 4, SLOC: 16,
		Features: prog.Features{Reduction: true, MulAdd: true},
		Callees:  []string{"FE::Shape1D", "FE::DShape1D", "QuadRule::Gauss2"}}

	// bilinearform.cpp
	symBilinearFormAssembleMass1D = &prog.Symbol{Name: "BilinearForm::AssembleMass1D", Exported: true, Work: 4, FPOps: 2, SLOC: 20,
		Features: prog.Features{Reduction: true},
		Callees:  []string{"MassIntegrator::Element1D", "scatterElement"}}
	symBilinearFormAssembleMass2D = &prog.Symbol{Name: "BilinearForm::AssembleMass2D", Exported: true, Work: 5, FPOps: 2, SLOC: 24,
		Features: prog.Features{Reduction: true},
		Callees:  []string{"MassIntegrator::Element2D", "scatterElement"}}
	symBilinearFormAssembleDiffusion1D = &prog.Symbol{Name: "BilinearForm::AssembleDiffusion1D", Exported: true, Work: 4, FPOps: 2, SLOC: 20,
		Features: prog.Features{Reduction: true},
		Callees:  []string{"DiffusionIntegrator::Element1D", "scatterElement"}}
	symBilinearFormAssembleDiffusion2D = &prog.Symbol{Name: "BilinearForm::AssembleDiffusion2D", Exported: true, Work: 5, FPOps: 2, SLOC: 24,
		Features: prog.Features{Reduction: true},
		Callees:  []string{"DiffusionIntegrator::Element2D", "scatterElement"}}
	symScatterElement = &prog.Symbol{Name: "scatterElement", Exported: false, Work: 1, FPOps: 1, SLOC: 10,
		Features: prog.Features{ShortExpr: true}}

	// linearform.cpp
	symLinearFormAssemble1D = &prog.Symbol{Name: "LinearForm::Assemble1D", Exported: true, Work: 3, FPOps: 3, SLOC: 16,
		Features: prog.Features{Reduction: true, MulAdd: true},
		Callees:  []string{"FE::Shape1D", "QuadRule::Gauss3", "IsoTrans::Map1D"}}
	symLinearFormAssemble2D = &prog.Symbol{Name: "LinearForm::Assemble2D", Exported: true, Work: 4, FPOps: 4, SLOC: 20,
		Features: prog.Features{Reduction: true, MulAdd: true},
		Callees:  []string{"FE::Shape2D", "QuadRule::Gauss2", "IsoTrans::Map2D"}}

	// solvers.cpp
	symCGSolve = &prog.Symbol{Name: "CG::Solve", Exported: true, Work: 8, FPOps: 10, SLOC: 38,
		Features: prog.Features{Reduction: true, MulAdd: true, Division: true, Branch: true},
		Callees: []string{"SparseMatrix::Mult", "Vector::Dot", "Vector::Axpy",
			"Vector::Norml2"}}
	symPCGSolve = &prog.Symbol{Name: "PCG::Solve", Exported: true, Work: 9, FPOps: 12, SLOC: 44,
		Features: prog.Features{Reduction: true, MulAdd: true, Division: true, Branch: true},
		Callees: []string{"SparseMatrix::Mult", "SparseMatrix::JacobiSmooth",
			"Vector::Dot", "Vector::Axpy", "Vector::Norml2"}}
	symJacobiIterate = &prog.Symbol{Name: "Jacobi::Iterate", Exported: true, Work: 5, FPOps: 5, SLOC: 18,
		Features: prog.Features{Division: true, Reduction: true},
		Callees:  []string{"SparseMatrix::JacobiSmooth"}}
	symPowerIterationRun = &prog.Symbol{Name: "PowerIteration::Run", Exported: true, Work: 6, FPOps: 6, SLOC: 22,
		Features: prog.Features{Reduction: true, SqrtLibm: true, Division: true},
		Callees:  []string{"SparseMatrix::Mult", "Vector::Normalize", "Vector::Dot"}}

	// gridfunc.cpp
	symGridFunctionProject1D = &prog.Symbol{Name: "GridFunction::Project1D", Exported: true, Work: 2, FPOps: 2, SLOC: 12,
		Callees: []string{"IsoTrans::Map1D"}}
	symGridFunctionProject2D = &prog.Symbol{Name: "GridFunction::Project2D", Exported: true, Work: 3, FPOps: 3, SLOC: 14,
		Callees: []string{"IsoTrans::Map2D"}}
	symGridFunctionL2Error = &prog.Symbol{Name: "GridFunction::L2Error", Exported: true, Work: 3, FPOps: 4, SLOC: 14,
		Features: prog.Features{Reduction: true, SqrtLibm: true},
		Callees:  []string{"Vector::Subtract", "Vector::Norml2"}}

	// ode.cpp
	symRK2Step = &prog.Symbol{Name: "RK2::Step", Exported: true, Work: 3, FPOps: 5, SLOC: 16,
		Features: prog.Features{MulAdd: true, ShortExpr: true},
		Callees:  []string{"Vector::Axpy"}}
	symUpwindFlux = &prog.Symbol{Name: "UpwindFlux", Exported: true, Work: 2, FPOps: 3, SLOC: 10,
		Features: prog.Features{Branch: true, ShortExpr: true}}
)

func buildProgram() *prog.Program {
	p := prog.New("mfem")

	p.AddFile("vector.cpp",
		symVectorDot, symVectorNorml2, symVectorSum, symVectorAdd, symVectorSubtract,
		symVectorScale, symVectorAxpy, symVectorNormalize, symVectorDistanceTo, symVectorMax)

	p.AddFile("densemat.cpp",
		symDenseMatrixMult, symDenseMatrixMultTranspose, symDenseMatrixAddMult_a_AAt,
		symDenseMatrixDet2, symDenseMatrixTrace, symDenseMatrixFNorm,
		symDenseMatrixInvert2x2, symDenseMatrixLSolve)

	p.AddFile("sparsemat.cpp",
		symSparseMatrixMult, symSparseMatrixAddMult, symSparseMatrixInnerProduct,
		symSparseMatrixGetDiag, symSparseMatrixJacobiSmooth, symSparseMatrixGaussSeidel)

	p.AddFile("mesh.cpp",
		symMeshMakeCartesian1D, symMeshMakeCartesian2D, symMeshElementSize,
		symMeshPerturbNodes)

	p.AddFile("fe.cpp", symFEShape1D, symFEDShape1D, symFEShape2D, symFEDShape2D)

	p.AddFile("quadrature.cpp", symQuadRuleGauss2, symQuadRuleGauss3, symQuadRuleMapToInterval)

	p.AddFile("eltrans.cpp",
		symIsoTransMap1D, symIsoTransWeight1D, symIsoTransMap2D, symIsoTransWeight2D)

	p.AddFile("coeff.cpp",
		symCoefficientPoly, symCoefficientRunge, symCoefficientSqrtRadius,
		symCoefficientExpDecay)

	p.AddFile("bilininteg.cpp",
		symMassIntegratorElement1D, symMassIntegratorElement2D,
		symDiffusionIntegratorElement1D, symDiffusionIntegratorElement2D,
		symConvectionIntegratorElement1D)

	p.AddFile("bilinearform.cpp",
		symBilinearFormAssembleMass1D, symBilinearFormAssembleMass2D,
		symBilinearFormAssembleDiffusion1D, symBilinearFormAssembleDiffusion2D,
		symScatterElement)

	p.AddFile("linearform.cpp", symLinearFormAssemble1D, symLinearFormAssemble2D)

	p.AddFile("solvers.cpp", symCGSolve, symPCGSolve, symJacobiIterate, symPowerIterationRun)

	p.AddFile("gridfunc.cpp",
		symGridFunctionProject1D, symGridFunctionProject2D, symGridFunctionL2Error)

	p.AddFile("ode.cpp", symRK2Step, symUpwindFlux)

	addExampleFiles(p)

	if err := p.Validate(); err != nil {
		panic("mfem: invalid program: " + err.Error())
	}
	return p
}

// exampleCallees maps every example to the library symbols its main calls
// directly. Kept in one place so the registry and the implementations stay
// in sync (exercised by tests).
var exampleCallees = map[int][]string{
	1:  {"Mesh::MakeCartesian1D", "BilinearForm::AssembleDiffusion1D", "LinearForm::Assemble1D", "CG::Solve"},
	2:  {"Mesh::MakeCartesian2D", "BilinearForm::AssembleDiffusion2D", "LinearForm::Assemble2D", "CG::Solve"},
	3:  {"Mesh::MakeCartesian1D", "Mesh::PerturbNodes", "BilinearForm::AssembleMass1D", "LinearForm::Assemble1D", "CG::Solve", "GridFunction::Project1D", "Coefficient::Poly", "Coefficient::Runge"},
	4:  {"Mesh::MakeCartesian2D", "BilinearForm::AssembleDiffusion2D", "LinearForm::Assemble2D", "CG::Solve", "Coefficient::SqrtRadius"},
	5:  {"Mesh::MakeCartesian2D", "BilinearForm::AssembleDiffusion2D", "LinearForm::Assemble2D", "PCG::Solve", "Coefficient::SqrtRadius"},
	6:  {"Mesh::MakeCartesian1D", "Mesh::ElementSize", "QuadRule::MapToInterval", "Coefficient::Poly", "UpwindFlux", "RK2::Step", "Vector::Sum"},
	7:  {"Mesh::MakeCartesian2D", "BilinearForm::AssembleMass2D", "GridFunction::Project2D", "Coefficient::Poly", "SparseMatrix::Mult"},
	8:  {"Mesh::MakeCartesian2D", "BilinearForm::AssembleDiffusion2D", "BilinearForm::AssembleMass2D", "LinearForm::Assemble2D", "PCG::Solve", "GridFunction::L2Error"},
	9:  {"Mesh::MakeCartesian2D", "BilinearForm::AssembleDiffusion2D", "BilinearForm::AssembleMass2D", "LinearForm::Assemble2D", "CG::Solve", "DenseMatrix::Mult", "DenseMatrix::MultTranspose", "DenseMatrix::Trace", "DenseMatrix::FNorm", "DenseMatrix::Invert2x2", "DenseMatrix::LSolve", "SparseMatrix::Mult", "Vector::Normalize", "Coefficient::ExpDecay"},
	10: {"Mesh::MakeCartesian1D", "BilinearForm::AssembleDiffusion1D", "Coefficient::ExpDecay", "CG::Solve", "Vector::Norml2"},
	11: {"Mesh::MakeCartesian1D", "BilinearForm::AssembleDiffusion1D", "PowerIteration::Run", "Vector::DistanceTo"},
	12: {"Mesh::MakeCartesian1D", "SparseMatrix::GetDiag", "Vector::Max"},
	13: {"DenseMatrix::AddMult_a_AAt"},
	14: {"Mesh::MakeCartesian2D", "BilinearForm::AssembleDiffusion2D", "LinearForm::Assemble2D", "CG::Solve", "Vector::Sum"},
	15: {"Mesh::MakeCartesian2D", "BilinearForm::AssembleMass2D", "BilinearForm::AssembleDiffusion2D", "CG::Solve", "Coefficient::SqrtRadius", "Coefficient::ExpDecay"},
	16: {"Mesh::MakeCartesian1D", "BilinearForm::AssembleMass1D", "BilinearForm::AssembleDiffusion1D", "SparseMatrix::Mult", "SparseMatrix::AddMult", "CG::Solve", "Coefficient::Poly"},
	17: {"Mesh::MakeCartesian2D", "BilinearForm::AssembleDiffusion2D", "SparseMatrix::GaussSeidel", "SparseMatrix::InnerProduct", "LinearForm::Assemble2D"},
	18: {"Mesh::MakeCartesian1D", "Vector::Add", "Vector::Scale", "SparseMatrix::GetDiag"},
	19: {"Mesh::MakeCartesian1D", "ConvectionIntegrator::Element1D", "RK2::Step", "UpwindFlux", "Vector::Sum", "Jacobi::Iterate"},
}

// exampleFeatures: FP patterns present in each example's own main body.
// Examples 12, 13, and 18 keep their mains pattern-free: 12 and 18 compute
// in exactly-representable arithmetic (the two invariant tests of Figure 5),
// and 13's main is plain control flow around the AddMult_a_AAt kernel, so
// the single-function blame of Finding 2 holds.
var exampleFeatures = map[int]prog.Features{
	1:  {ShortExpr: true},
	2:  {ShortExpr: true},
	3:  {MulAdd: true},
	4:  {ShortExpr: true},
	5:  {ShortExpr: true, MulAdd: true},
	6:  {MulAdd: true, ShortExpr: true},
	7:  {Reduction: true},
	8:  {ShortExpr: true},
	9:  {MulAdd: true, Reduction: true},
	10: {MulAdd: true, Division: true, Branch: true},
	11: {ShortExpr: true},
	12: {},
	13: {},
	14: {ShortExpr: true},
	15: {MulAdd: true},
	16: {ShortExpr: true},
	17: {Reduction: true},
	18: {},
	19: {MulAdd: true},
}

// exampleSyms holds the examples' main symbols, example n at index n-1:
// the handles enter passes to link.Machine.Fn.
var exampleSyms [19]*prog.Symbol

func addExampleFiles(p *prog.Program) {
	works := map[int]float64{
		1: 6, 2: 10, 3: 6, 4: 11, 5: 12, 6: 7, 7: 8, 8: 14, 9: 16, 10: 9,
		11: 10, 12: 3, 13: 8, 14: 10, 15: 13, 16: 11, 17: 12, 18: 3, 19: 9,
	}
	for i := 1; i <= 19; i++ {
		exampleSyms[i-1] = &prog.Symbol{
			Name:     exampleSymbol(i),
			Exported: true,
			Work:     works[i],
			FPOps:    8,
			SLOC:     60,
			Features: exampleFeatures[i],
			Callees:  exampleCallees[i],
		}
		p.AddFile(exampleFile(i), exampleSyms[i-1])
	}
}

func exampleSymbol(i int) string {
	return "main_ex" + itoa(i)
}

func exampleFile(i int) string {
	return "ex" + itoa(i) + ".cpp"
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}
