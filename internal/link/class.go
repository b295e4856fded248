package link

import (
	"encoding/binary"
	"math"
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
// from nothing else, so compilations with equal classes generate
// value-identical code for the whole program however differently they are
// spelled. Executable.Behavior keys on class IDs for exactly that reason.
//
// A class is immutable once built and shared by every executable that
// links the same (program, compilation, driver).
type class struct {
	// id is equal for two classes of one program exactly when their
	// contents are equal.
	id       uint32
	compiler string
	sems     []fp.Semantics // by symbol ID, normalized
	injSym   int            // ID of the injected symbol; -1 when none
	inj      fp.Injection
	// envs holds, by symbol ID, an un-injected Env of the symbol's
	// semantics, built once and shared by every Machine: an Env without an
	// injection never changes state. Only the injected symbol gets a fresh
	// Env per run (env), because its Env counts operations.
	envs []*fp.Env
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

// classIDs interns class contents to IDs. semIDs numbers the distinct
// fp.Semantics values, so a class's content is a string of small numbers
// and a new field of fp.Semantics is part of it without a change here.
var classIDs = struct {
	mu     sync.Mutex
	ids    map[classIdent]uint32
	semIDs map[fp.Semantics]uint64
}{ids: map[classIdent]uint32{}, semIDs: map[fp.Semantics]uint64{}}

// classIdent is a class's content together with its program: IDs are
// never shared across programs.
type classIdent struct {
	prog    *prog.Program
	content string
}

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

// newClass derives a class from scratch and interns its ID. An injection
// changes no symbol's semantics, so an injected class shares the
// semantics and Envs of the class its compilation has without the plan.
func newClass(p *prog.Program, c comp.Compilation, driver string) *class {
	cl := &class{compiler: c.Compiler, sems: make([]fp.Semantics, p.NumSymbols()), injSym: -1}
	for id := range cl.sems {
		sym := p.SymbolAt(id)
		cl.sems[id] = comp.ApplyLinkStep(driver, sym, comp.Semantics(c, sym)).Normalize()
	}
	if c.Inject != nil {
		if sym := p.Symbol(c.Inject.Symbol); sym != nil {
			cl.injSym, cl.inj = sym.ID(), c.Inject.Inj
		}
		base := c
		base.Inject = nil
		if b := classOf(p, base, driver); slices.Equal(b.sems, cl.sems) {
			cl.sems, cl.envs = b.sems, b.envs
		}
	}
	if cl.envs == nil {
		cl.envs = make([]*fp.Env, len(cl.sems))
		for id, sem := range cl.sems {
			cl.envs[id] = fp.NewEnv(sem)
		}
	}
	cl.id = internClass(p, cl)
	return cl
}

// internClass returns the ID of cl's content within program p, assigning
// the next free one on first sight. The content encoding is
// self-delimiting: a length-prefixed compiler name, a count-prefixed list
// of semantics numbers, then, only for an injected class, the target,
// site, operation and epsilon bits (so ±0 and NaN payloads stay apart).
func internClass(p *prog.Program, cl *class) uint32 {
	classIDs.mu.Lock()
	defer classIDs.mu.Unlock()
	b := binary.AppendUvarint(nil, uint64(len(cl.compiler)))
	b = append(b, cl.compiler...)
	b = binary.AppendUvarint(b, uint64(len(cl.sems)))
	for _, s := range cl.sems {
		id, ok := classIDs.semIDs[s]
		if !ok {
			id = uint64(len(classIDs.semIDs))
			classIDs.semIDs[s] = id
		}
		b = binary.AppendUvarint(b, id)
	}
	if cl.injSym >= 0 {
		b = binary.AppendUvarint(b, uint64(cl.injSym))
		b = binary.AppendVarint(b, int64(cl.inj.OpIndex))
		b = append(b, byte(cl.inj.Op))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cl.inj.Eps))
	}
	k := classIdent{prog: p, content: string(b)}
	id, ok := classIDs.ids[k]
	if !ok {
		id = uint32(len(classIDs.ids))
		classIDs.ids[k] = id
	}
	return id
}

// env returns the Env for one symbol under this class: the shared one, or
// for the injected symbol a fresh one, its operation counter at zero.
func (cl *class) env(sym *prog.Symbol) *fp.Env {
	id := sym.ID()
	if id == cl.injSym {
		return fp.NewInjectedEnv(cl.sems[id], sym.FPOps, cl.inj)
	}
	return cl.envs[id]
}
