package link

import (
	"slices"
	"sync"

	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/prog"
)

// class is everything a Machine reads from one compilation of a program
// linked by one driver: the compiler's name (Machine.Compiler) and, per
// symbol, the fp.Semantics its Env evaluates under after the link step,
// plus the injection as that Env sees it: the target symbol and the site,
// operation and epsilon. Machine.env builds every Env from a class and
// from nothing else, and Executable.AppendProjection reads a trace's
// fields from the same class, so the memo's key and the machine cannot
// drift apart.
//
// A class is immutable once built and shared by every executable that
// links the same (program, compilation, driver).
type class struct {
	compiler string
	// packed holds, by symbol ID, fp.Semantics.Pack of the symbol's
	// semantics.
	packed []uint16
	injSym int // ID of the injected symbol; -1 when none
	inj    fp.Injection
	// envs holds, by symbol ID, the Env every run of the symbol starts
	// from; injEnv is the injected symbol's. A Machine copies them into its
	// own slots and never runs on these.
	envs   []fp.Env
	injEnv fp.Env
}

// classKey addresses the class memo. The compilation is identified by its
// Key, which renders an injection plan by value, so equal plans held as
// separate pointers share one class (Executable.comps still keeps them
// apart, and with them their Envs' counters). A program must be complete
// before it is first linked, as symTab already requires.
type classKey struct {
	prog   *prog.Program
	comp   string
	driver string
}

// classMemo memoizes classOf, the way comp memoizes a compilation's
// effects: a process links thousands of executables from a few hundred
// distinct compilations, and deriving a class evaluates every symbol's
// semantics.
var classMemo sync.Map // classKey -> *class

// classOf returns the memoized class of program p compiled under c and
// linked by driver.
func classOf(p *prog.Program, c comp.Compilation, driver string) *class {
	k := classKey{prog: p, comp: c.Key(), driver: driver}
	if v, ok := classMemo.Load(k); ok {
		return v.(*class)
	}
	v, _ := classMemo.LoadOrStore(k, newClass(p, c, driver))
	return v.(*class)
}

// newClass derives a class from scratch. An injection changes no symbol's
// semantics, so an injected class shares the packed semantics and Envs of
// the class its compilation has without the plan.
func newClass(p *prog.Program, c comp.Compilation, driver string) *class {
	sems := make([]fp.Semantics, p.NumSymbols())
	cl := &class{compiler: c.Compiler, packed: make([]uint16, len(sems)), injSym: -1}
	for id := range sems {
		sym := p.SymbolAt(id)
		sems[id] = comp.ApplyLinkStep(driver, sym, comp.Semantics(c, sym))
		cl.packed[id] = sems[id].Pack()
	}
	if c.Inject != nil {
		if sym := p.Symbol(c.Inject.Symbol); sym != nil {
			cl.injSym, cl.inj = sym.ID(), c.Inject.Inj
			cl.injEnv = *fp.NewInjectedEnv(sems[cl.injSym], sym.FPOps, cl.inj)
		}
		base := c
		base.Inject = nil
		if b := classOf(p, base, driver); slices.Equal(b.packed, cl.packed) {
			cl.packed, cl.envs = b.packed, b.envs
		}
	}
	if cl.envs == nil {
		cl.envs = make([]fp.Env, len(sems))
		for id, sem := range sems {
			cl.envs[id] = *fp.NewEnv(sem)
		}
	}
	return cl
}

// env returns the Env one run of sym under this class starts from: its
// symbol's, or the injected one, its operation counter at zero.
func (cl *class) env(sym *prog.Symbol) *fp.Env {
	id := sym.ID()
	if id == cl.injSym {
		return &cl.injEnv
	}
	return &cl.envs[id]
}
