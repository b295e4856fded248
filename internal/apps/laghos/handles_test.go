package laghos

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
		"main_laghos": symMainLaghos,
		"EnergyNorm":  symEnergyNorm,
		"LagrangianHydroOperator::UpdateQuadratureData": symHydroUpdateQuadratureData,
		"LagrangianHydroOperator::ForceMult":            symHydroForceMult,
		"LagrangianHydroOperator::SolveVelocity":        symHydroSolveVelocity,
		"LagrangianHydroOperator::SolveEnergy":          symHydroSolveEnergy,
		"LagrangianHydroOperator::ComputeDt":            symHydroComputeDt,
		"ForcePA::Assemble":                             symForcePAAssemble,
		"MassPA::Assemble":                              symMassPAAssemble,
		"EOS::Pressure":                                 symEOSPressure,
		"EOS::SoundSpeed":                               symEOSSoundSpeed,
		"TimeIntegrator::SwapLevels":                    symTimeIntegratorSwapLevels,
		"TimeIntegrator::RotateBuffers":                 symTimeIntegratorRotateBuffers,
		"ComputeVolume":                                 symComputeVolume,
		"MinElementWidth":                               symMinElementWidth,
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
