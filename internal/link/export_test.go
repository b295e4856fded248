package link

import (
	"repro/internal/comp"
	"repro/internal/prog"
)

// ReferenceLink links p with the map-based reference linker (mapPlan.link),
// for the tests of package link_test, which link the apps' programs (the
// apps import link, so those tests live outside the package).
func ReferenceLink(p Plan) *Executable { return mapPlanOf(p).link() }

// Binding returns the compilation sym binds to when no same-file caller is
// on the stack.
func (e *Executable) Binding(sym *prog.Symbol) comp.Compilation {
	return e.comps[e.symTab[sym.ID()]]
}
