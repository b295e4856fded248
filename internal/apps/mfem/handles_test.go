package mfem

import (
	"fmt"
	"testing"

	"repro/internal/prog"
)

// TestHandlesMatchRegistry pins every symbol handle the implementation
// enters through link.Machine.Fn to the name it is registered under, and
// checks that every registered symbol has a handle: renaming a symbol in
// the registry fails here, by name, instead of shifting blame silently.
func TestHandlesMatchRegistry(t *testing.T) {
	handles := map[string]*prog.Symbol{
		"Vector::Dot":                       symVectorDot,
		"Vector::Norml2":                    symVectorNorml2,
		"Vector::Sum":                       symVectorSum,
		"Vector::Add":                       symVectorAdd,
		"Vector::Subtract":                  symVectorSubtract,
		"Vector::Scale":                     symVectorScale,
		"Vector::Axpy":                      symVectorAxpy,
		"Vector::Normalize":                 symVectorNormalize,
		"Vector::DistanceTo":                symVectorDistanceTo,
		"Vector::Max":                       symVectorMax,
		"DenseMatrix::Mult":                 symDenseMatrixMult,
		"DenseMatrix::MultTranspose":        symDenseMatrixMultTranspose,
		"DenseMatrix::AddMult_a_AAt":        symDenseMatrixAddMult_a_AAt,
		"DenseMatrix::Det2":                 symDenseMatrixDet2,
		"DenseMatrix::Trace":                symDenseMatrixTrace,
		"DenseMatrix::FNorm":                symDenseMatrixFNorm,
		"DenseMatrix::Invert2x2":            symDenseMatrixInvert2x2,
		"DenseMatrix::LSolve":               symDenseMatrixLSolve,
		"SparseMatrix::Mult":                symSparseMatrixMult,
		"SparseMatrix::AddMult":             symSparseMatrixAddMult,
		"SparseMatrix::InnerProduct":        symSparseMatrixInnerProduct,
		"SparseMatrix::GetDiag":             symSparseMatrixGetDiag,
		"SparseMatrix::JacobiSmooth":        symSparseMatrixJacobiSmooth,
		"SparseMatrix::GaussSeidel":         symSparseMatrixGaussSeidel,
		"Mesh::MakeCartesian1D":             symMeshMakeCartesian1D,
		"Mesh::MakeCartesian2D":             symMeshMakeCartesian2D,
		"Mesh::ElementSize":                 symMeshElementSize,
		"Mesh::PerturbNodes":                symMeshPerturbNodes,
		"FE::Shape1D":                       symFEShape1D,
		"FE::DShape1D":                      symFEDShape1D,
		"FE::Shape2D":                       symFEShape2D,
		"FE::DShape2D":                      symFEDShape2D,
		"QuadRule::Gauss2":                  symQuadRuleGauss2,
		"QuadRule::Gauss3":                  symQuadRuleGauss3,
		"QuadRule::MapToInterval":           symQuadRuleMapToInterval,
		"IsoTrans::Map1D":                   symIsoTransMap1D,
		"IsoTrans::Weight1D":                symIsoTransWeight1D,
		"IsoTrans::Map2D":                   symIsoTransMap2D,
		"IsoTrans::Weight2D":                symIsoTransWeight2D,
		"Coefficient::Poly":                 symCoefficientPoly,
		"Coefficient::Runge":                symCoefficientRunge,
		"Coefficient::SqrtRadius":           symCoefficientSqrtRadius,
		"Coefficient::ExpDecay":             symCoefficientExpDecay,
		"MassIntegrator::Element1D":         symMassIntegratorElement1D,
		"MassIntegrator::Element2D":         symMassIntegratorElement2D,
		"DiffusionIntegrator::Element1D":    symDiffusionIntegratorElement1D,
		"DiffusionIntegrator::Element2D":    symDiffusionIntegratorElement2D,
		"ConvectionIntegrator::Element1D":   symConvectionIntegratorElement1D,
		"BilinearForm::AssembleMass1D":      symBilinearFormAssembleMass1D,
		"BilinearForm::AssembleMass2D":      symBilinearFormAssembleMass2D,
		"BilinearForm::AssembleDiffusion1D": symBilinearFormAssembleDiffusion1D,
		"BilinearForm::AssembleDiffusion2D": symBilinearFormAssembleDiffusion2D,
		"scatterElement":                    symScatterElement,
		"LinearForm::Assemble1D":            symLinearFormAssemble1D,
		"LinearForm::Assemble2D":            symLinearFormAssemble2D,
		"CG::Solve":                         symCGSolve,
		"PCG::Solve":                        symPCGSolve,
		"Jacobi::Iterate":                   symJacobiIterate,
		"PowerIteration::Run":               symPowerIterationRun,
		"GridFunction::Project1D":           symGridFunctionProject1D,
		"GridFunction::Project2D":           symGridFunctionProject2D,
		"GridFunction::L2Error":             symGridFunctionL2Error,
		"RK2::Step":                         symRK2Step,
		"UpwindFlux":                        symUpwindFlux,
	}
	p := Program()
	for i, h := range exampleSyms {
		handles[fmt.Sprintf("main_ex%d", i+1)] = h
	}
	for name, h := range handles {
		if got := p.Symbol(name); got == nil || got != h {
			t.Errorf("handle for %q is %v, registry holds %v", name, h, got)
		}
	}
	if len(handles) != p.NumSymbols() {
		t.Errorf("%d handles for %d registered symbols", len(handles), p.NumSymbols())
	}
}
