// Package lulesh is a miniature Livermore Unstructured Lagrangian Explicit
// Shock Hydrodynamics proxy in the shape of the LULESH benchmark used for
// the paper's controlled injection study (§3.5): a staggered-grid explicit
// hydro step decomposed into the original code's function structure —
// nodal force/acceleration/velocity/position updates, element kinematics,
// hourglass control, monotonic Q, an EOS solve, and time constraints.
//
// The registry declares 1,094 static floating-point operations across the
// tree, the number of injection sites the paper enumerates; a site is one
// (function, static instruction) pair and every site is injected with each
// of the four OP' operations, giving the study's 4,376 runs. A few
// functions (the multi-region code paths) are not executed by this
// workload, so their injections are benign — one of the paper's
// "not measurable" categories.
package lulesh

import (
	"sync"

	// Nothing here names fp, but the compiler inlines fp.Env's fast paths
	// (Add, Sub, Mul, Div, MulAdd) only into a package that imports fp:
	// reached through link alone, every one of them stays a call.
	_ "repro/internal/fp"
	"repro/internal/prog"
)

var (
	buildOnce sync.Once
	theProg   *prog.Program
)

// Program returns the static description of the mini-LULESH source tree.
func Program() *prog.Program {
	buildOnce.Do(func() { theProg = buildProgram() })
	return theProg
}

// TotalInjectionSites is the number of static FP instructions the paper's
// first LLVM pass finds in LULESH.
const TotalInjectionSites = 1094

// The program's symbols, one per simulated function. Each is also the
// handle its implementation enters through link.Machine.Fn; buildProgram
// registers them, so they are bound to the program once Program has run.
var (
	// lulesh.cc
	symMainLulesh = &prog.Symbol{Name: "main_lulesh", Exported: true, Work: 4, FPOps: 10, SLOC: 80,
		Features: prog.Features{ShortExpr: true},
		Callees:  []string{"TimeIncrement", "LagrangeLeapFrog"}}
	symTimeIncrement = &prog.Symbol{Name: "TimeIncrement", Exported: true, Work: 2, FPOps: 8, SLOC: 24,
		Features: prog.Features{Division: true, Branch: true},
		Callees:  []string{"CalcTimeConstraintsForElems"}}
	symLagrangeLeapFrog = &prog.Symbol{Name: "LagrangeLeapFrog", Exported: true, Work: 2, FPOps: 0, SLOC: 14,
		Callees: []string{"LagrangeNodal", "LagrangeElemental"}}

	// lulesh-nodal.cc
	symLagrangeNodal = &prog.Symbol{Name: "LagrangeNodal", Exported: true, Work: 3, FPOps: 6, SLOC: 22,
		Callees: []string{"CalcForceForNodes", "CalcAccelerationForNodes",
			"CalcVelocityForNodes", "CalcPositionForNodes"}}
	symCalcForceForNodes = &prog.Symbol{Name: "CalcForceForNodes", Exported: true, Work: 5, FPOps: 12, SLOC: 26,
		Features: prog.Features{Reduction: true},
		Callees:  []string{"IntegrateStressForElems", "CalcHourglassControlForElems"}}
	symCalcAccelerationForNodes = &prog.Symbol{Name: "CalcAccelerationForNodes", Exported: true, Work: 3, FPOps: 10, SLOC: 16,
		Features: prog.Features{Division: true}}
	symCalcVelocityForNodes = &prog.Symbol{Name: "CalcVelocityForNodes", Exported: true, Work: 3, FPOps: 12, SLOC: 18,
		Features: prog.Features{MulAdd: true, Branch: true}}
	symCalcPositionForNodes = &prog.Symbol{Name: "CalcPositionForNodes", Exported: true, Work: 3, FPOps: 10, SLOC: 14,
		Features: prog.Features{MulAdd: true}}

	// lulesh-elems.cc
	symLagrangeElemental = &prog.Symbol{Name: "LagrangeElemental", Exported: true, Work: 3, FPOps: 6, SLOC: 20,
		Callees: []string{"CalcLagrangeElements", "CalcQForElems",
			"ApplyMaterialPropertiesForElems", "UpdateVolumesForElems"}}
	symCalcLagrangeElements = &prog.Symbol{Name: "CalcLagrangeElements", Exported: true, Work: 4, FPOps: 14, SLOC: 24,
		Features: prog.Features{MulAdd: true},
		Callees:  []string{"CalcKinematicsForElems"}}
	symCalcKinematicsForElems = &prog.Symbol{Name: "CalcKinematicsForElems", Exported: false, Work: 6, FPOps: 47, SLOC: 52,
		Features: prog.Features{MulAdd: true, Division: true},
		Callees: []string{"CalcElemVolume", "CalcElemCharacteristicLength",
			"CalcElemShapeFunctionDerivatives"}}
	symCalcElemVolume = &prog.Symbol{Name: "CalcElemVolume", Exported: false, Work: 4, FPOps: 40, SLOC: 40,
		Features: prog.Features{MulAdd: true, Reduction: true}}
	symCalcElemCharacteristicLength = &prog.Symbol{Name: "CalcElemCharacteristicLength", Exported: false, Work: 3, FPOps: 24, SLOC: 30,
		Features: prog.Features{SqrtLibm: true, Division: true}}
	symUpdateVolumesForElems = &prog.Symbol{Name: "UpdateVolumesForElems", Exported: true, Work: 3, FPOps: 12, SLOC: 16,
		Features: prog.Features{Division: true}}
	symCalcElemShapeFunctionDerivatives = &prog.Symbol{Name: "CalcElemShapeFunctionDerivatives", Exported: false, Work: 4, FPOps: 48, SLOC: 46,
		Features: prog.Features{MulAdd: true, Division: true}}

	// lulesh-stress.cc
	symIntegrateStressForElems = &prog.Symbol{Name: "IntegrateStressForElems", Exported: true, Work: 6, FPOps: 36, SLOC: 44,
		Features: prog.Features{Reduction: true, MulAdd: true},
		Callees:  []string{"InitStressTermsForElems", "SumElemFaceNormal"}}
	symInitStressTermsForElems = &prog.Symbol{Name: "InitStressTermsForElems", Exported: false, Work: 2, FPOps: 16, SLOC: 18,
		Features: prog.Features{ShortExpr: true}}
	symSumElemFaceNormal = &prog.Symbol{Name: "SumElemFaceNormal", Exported: false, Work: 4, FPOps: 40, SLOC: 36,
		Features: prog.Features{MulAdd: true, Reduction: true}}

	// lulesh-hourglass.cc
	symCalcHourglassControlForElems = &prog.Symbol{Name: "CalcHourglassControlForElems", Exported: true, Work: 6, FPOps: 30, SLOC: 40,
		Features: prog.Features{MulAdd: true},
		Callees:  []string{"CalcFBHourglassForceForElems", "VoluDer"}}
	symCalcFBHourglassForceForElems = &prog.Symbol{Name: "CalcFBHourglassForceForElems", Exported: false, Work: 8, FPOps: 80, SLOC: 78,
		Features: prog.Features{Reduction: true, MulAdd: true, SqrtLibm: true}}
	symVoluDer = &prog.Symbol{Name: "VoluDer", Exported: false, Work: 4, FPOps: 48, SLOC: 40,
		Features: prog.Features{MulAdd: true}}

	// lulesh-q.cc
	symCalcQForElems = &prog.Symbol{Name: "CalcQForElems", Exported: true, Work: 4, FPOps: 10, SLOC: 26,
		Callees: []string{"CalcMonotonicQGradientsForElems", "CalcMonotonicQRegionForElems"}}
	symCalcMonotonicQGradientsForElems = &prog.Symbol{Name: "CalcMonotonicQGradientsForElems", Exported: false, Work: 6, FPOps: 60, SLOC: 58,
		Features: prog.Features{Division: true, MulAdd: true}}
	symCalcMonotonicQRegionForElems = &prog.Symbol{Name: "CalcMonotonicQRegionForElems", Exported: false, Work: 6, FPOps: 70, SLOC: 66,
		Features: prog.Features{Branch: true, MulAdd: true, Division: true}}

	// lulesh-eos.cc
	symApplyMaterialPropertiesForElems = &prog.Symbol{Name: "ApplyMaterialPropertiesForElems", Exported: true, Work: 4, FPOps: 12, SLOC: 24,
		Callees: []string{"EvalEOSForElems"}}
	symEvalEOSForElems = &prog.Symbol{Name: "EvalEOSForElems", Exported: false, Work: 5, FPOps: 30, SLOC: 38,
		Features: prog.Features{ShortExpr: true},
		Callees:  []string{"CalcEnergyForElems", "CalcSoundSpeedForElems"}}
	symCalcEnergyForElems = &prog.Symbol{Name: "CalcEnergyForElems", Exported: false, Work: 7, FPOps: 90, SLOC: 84,
		Features: prog.Features{MulAdd: true, Branch: true, Division: true},
		Callees:  []string{"CalcPressureForElems"}}
	symCalcPressureForElems = &prog.Symbol{Name: "CalcPressureForElems", Exported: false, Work: 5, FPOps: 50, SLOC: 40,
		Features: prog.Features{MulAdd: true, Branch: true}}
	symCalcSoundSpeedForElems = &prog.Symbol{Name: "CalcSoundSpeedForElems", Exported: false, Work: 4, FPOps: 36, SLOC: 26,
		Features: prog.Features{SqrtLibm: true, Division: true}}

	// lulesh-constraints.cc
	symCalcTimeConstraintsForElems = &prog.Symbol{Name: "CalcTimeConstraintsForElems", Exported: true, Work: 2, FPOps: 8, SLOC: 18,
		Callees: []string{"CalcCourantConstraintForElems", "CalcHydroConstraintForElems"}}
	symCalcCourantConstraintForElems = &prog.Symbol{Name: "CalcCourantConstraintForElems", Exported: false, Work: 3, FPOps: 24, SLOC: 26,
		Features: prog.Features{SqrtLibm: true, Division: true, Branch: true}}
	symCalcHydroConstraintForElems = &prog.Symbol{Name: "CalcHydroConstraintForElems", Exported: false, Work: 3, FPOps: 20, SLOC: 22,
		Features: prog.Features{Division: true, Branch: true}}

	// lulesh-util.cc
	symAreaFace = &prog.Symbol{Name: "AreaFace", Exported: false, Work: 2, FPOps: 40, SLOC: 30,
		Features: prog.Features{MulAdd: true},
		Callees:  nil}
	symCombineDerivs = &prog.Symbol{Name: "CombineDerivs", Exported: true, Work: 2, FPOps: 45, SLOC: 34,
		Features: prog.Features{Reduction: true},
		Callees:  []string{"AreaFace"}}
	symCalcElemNodeNormals = &prog.Symbol{Name: "CalcElemNodeNormals", Exported: true, Work: 3, FPOps: 90, SLOC: 60,
		Features: prog.Features{MulAdd: true},
		Callees:  []string{"AreaFace"}}
)

func buildProgram() *prog.Program {
	p := prog.New("lulesh")
	p.AddFile("lulesh.cc", symMainLulesh, symTimeIncrement, symLagrangeLeapFrog)
	p.AddFile("lulesh-nodal.cc",
		symLagrangeNodal, symCalcForceForNodes, symCalcAccelerationForNodes,
		symCalcVelocityForNodes, symCalcPositionForNodes)
	p.AddFile("lulesh-elems.cc",
		symLagrangeElemental, symCalcLagrangeElements, symCalcKinematicsForElems,
		symCalcElemVolume, symCalcElemCharacteristicLength, symUpdateVolumesForElems,
		symCalcElemShapeFunctionDerivatives)
	p.AddFile("lulesh-stress.cc",
		symIntegrateStressForElems, symInitStressTermsForElems, symSumElemFaceNormal)
	p.AddFile("lulesh-hourglass.cc",
		symCalcHourglassControlForElems, symCalcFBHourglassForceForElems, symVoluDer)
	p.AddFile("lulesh-q.cc",
		symCalcQForElems, symCalcMonotonicQGradientsForElems,
		symCalcMonotonicQRegionForElems)
	p.AddFile("lulesh-eos.cc",
		symApplyMaterialPropertiesForElems, symEvalEOSForElems, symCalcEnergyForElems,
		symCalcPressureForElems, symCalcSoundSpeedForElems)
	p.AddFile("lulesh-constraints.cc",
		symCalcTimeConstraintsForElems, symCalcCourantConstraintForElems,
		symCalcHydroConstraintForElems)
	// Multi-region and I/O paths not exercised by this workload: their
	// injection sites are benign ("not measurable" in Table 5).
	p.AddFile("lulesh-util.cc", symAreaFace, symCombineDerivs, symCalcElemNodeNormals)
	if err := p.Validate(); err != nil {
		panic("lulesh: invalid program: " + err.Error())
	}
	st := p.Stats()
	if st.TotalFPOps != TotalInjectionSites {
		panic("lulesh: registry FP ops do not sum to the paper's 1,094 sites")
	}
	return p
}
