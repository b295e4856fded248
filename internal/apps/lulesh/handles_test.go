package lulesh

import (
	"testing"

	"repro/internal/prog"
)

// TestHandlesMatchRegistry pins every symbol handle the implementation
// enters through link.Machine.Fn to the name it is registered under, and
// checks that every registered symbol has a handle: renaming a symbol in
// the registry fails here, by name, instead of shifting blame silently.
func TestHandlesMatchRegistry(t *testing.T) {
	handles := map[string]*prog.Symbol{
		"main_lulesh":                      symMainLulesh,
		"TimeIncrement":                    symTimeIncrement,
		"LagrangeLeapFrog":                 symLagrangeLeapFrog,
		"LagrangeNodal":                    symLagrangeNodal,
		"CalcForceForNodes":                symCalcForceForNodes,
		"CalcAccelerationForNodes":         symCalcAccelerationForNodes,
		"CalcVelocityForNodes":             symCalcVelocityForNodes,
		"CalcPositionForNodes":             symCalcPositionForNodes,
		"LagrangeElemental":                symLagrangeElemental,
		"CalcLagrangeElements":             symCalcLagrangeElements,
		"CalcKinematicsForElems":           symCalcKinematicsForElems,
		"CalcElemVolume":                   symCalcElemVolume,
		"CalcElemCharacteristicLength":     symCalcElemCharacteristicLength,
		"UpdateVolumesForElems":            symUpdateVolumesForElems,
		"CalcElemShapeFunctionDerivatives": symCalcElemShapeFunctionDerivatives,
		"IntegrateStressForElems":          symIntegrateStressForElems,
		"InitStressTermsForElems":          symInitStressTermsForElems,
		"SumElemFaceNormal":                symSumElemFaceNormal,
		"CalcHourglassControlForElems":     symCalcHourglassControlForElems,
		"CalcFBHourglassForceForElems":     symCalcFBHourglassForceForElems,
		"VoluDer":                          symVoluDer,
		"CalcQForElems":                    symCalcQForElems,
		"CalcMonotonicQGradientsForElems":  symCalcMonotonicQGradientsForElems,
		"CalcMonotonicQRegionForElems":     symCalcMonotonicQRegionForElems,
		"ApplyMaterialPropertiesForElems":  symApplyMaterialPropertiesForElems,
		"EvalEOSForElems":                  symEvalEOSForElems,
		"CalcEnergyForElems":               symCalcEnergyForElems,
		"CalcPressureForElems":             symCalcPressureForElems,
		"CalcSoundSpeedForElems":           symCalcSoundSpeedForElems,
		"CalcTimeConstraintsForElems":      symCalcTimeConstraintsForElems,
		"CalcCourantConstraintForElems":    symCalcCourantConstraintForElems,
		"CalcHydroConstraintForElems":      symCalcHydroConstraintForElems,
		"AreaFace":                         symAreaFace,
		"CombineDerivs":                    symCombineDerivs,
		"CalcElemNodeNormals":              symCalcElemNodeNormals,
	}
	p := Program()
	for name, h := range handles {
		if got := p.Symbol(name); got == nil || got != h {
			t.Errorf("handle for %q is %v, registry holds %v", name, h, got)
		}
	}
	if len(handles) != p.NumSymbols() {
		t.Errorf("%d handles for %d registered symbols", len(handles), p.NumSymbols())
	}
}
