package link

import (
	"fmt"
	"slices"

	"repro/internal/fp"
	"repro/internal/prog"
)

// Machine executes application code against one linked executable. It
// tracks the simulated call stack so that internal (non-exported) symbols
// resolve to the copy of their translation unit their caller came from —
// the behavior of real static functions when Symbol Bisect links two copies
// of an object file.
//
// Application functions bracket their bodies with:
//
//	env, done := m.Fn(symDot)
//	defer done()
//
// where symDot is the *prog.Symbol the application registered for the
// function (its handle), and perform all floating-point arithmetic
// through env. A Machine is not
// safe for concurrent use; create one Machine per goroutine.
//
// What a run can observe is its executable's Layout plus what its Trace
// records: every Env comes from the class of the compilation providing
// the frame, the binding from symTab and the stack, and the one non-fp
// fact an application may read is the frame's compiler name (Compiler).
// Keep it that way: an accessor exposing more of the plan, or an Env
// operation that reads a field without recording it, would let two
// executables with equal projections run differently.
type Machine struct {
	ex    *Executable
	stack []frame
	// slots holds this run's own fp.Env per (symbol, providing
	// compilation), at index symbolID*len(ex.comps) + the compilation's
	// index in ex.comps, copied on first entry from the class's (its
	// injection and zeroed counter included). A slot never entered has
	// Reads 0; an entered one at least fp.ReadsFTZ. An injected function's
	// dynamic instruction counter therefore accumulates across invocations
	// — an injection at static instruction k of a function called many
	// times fires on every pass through its body, exactly like a real
	// static-instruction perturbation. Because ex.comps deduplicates by
	// ==, an injection plan is told apart by pointer identity, which is
	// the sharing those counters need.
	slots []fp.Env
	// compiler records that the run read a compiler name.
	compiler bool
	// done is the frame-leaving function Fn returns, bound once so that
	// entering a function allocates nothing.
	done func()
}

// frame is one simulated activation: the caller's file ID and the index
// in ex.comps of the compilation providing it.
type frame struct {
	file, comp int32
}

// NewMachine returns a machine for one run of the executable. It returns
// ErrSegfault if the mixed binary is ABI-incompatible and cannot run.
func (e *Executable) NewMachine() (*Machine, error) {
	if e.crash {
		return nil, ErrSegfault
	}
	m := &Machine{ex: e, slots: make([]fp.Env, e.prog.NumSymbols()*len(e.comps))}
	m.done = m.pop
	return m, nil
}

// Fn enters the function sym: it resolves which compilation provides this
// invocation, takes the fp.Env for that compilation's semantics (from its
// class: link-driver effects and any injection plan included), and returns
// it together with a function that must be deferred to leave the frame.
// sym must be registered in the executable's program; a symbol of another
// program (or of none) is a programming error and panics.
func (m *Machine) Fn(sym *prog.Symbol) (*fp.Env, func()) {
	if sym.Owner() != m.ex.prog {
		panic(fmt.Sprintf("link: symbol %q is not registered in program %q", sym.Name, m.ex.prog.Name))
	}
	c := m.resolve(sym)
	m.stack = append(m.stack, frame{file: int32(sym.FileID()), comp: c})
	return m.env(sym, c), m.done
}

func (m *Machine) pop() {
	m.stack = m.stack[:len(m.stack)-1]
}

// resolve returns the index in ex.comps of the compilation whose code runs
// for this invocation. An internal symbol is bound to the copy of its file
// that the nearest same-file caller on the stack came from; everything
// else, including an internal symbol with no same-file caller (e.g. a test
// harness calling it directly), takes the binding Link resolved.
func (m *Machine) resolve(sym *prog.Symbol) int32 {
	if !sym.Exported {
		file := int32(sym.FileID())
		for i := len(m.stack) - 1; i >= 0; i-- {
			if m.stack[i].file == file {
				return m.stack[i].comp
			}
		}
	}
	return m.ex.symTab[sym.ID()]
}

// env returns the run's fp.Env for one symbol under the compilation at
// index c of ex.comps, copied on first entry from that compilation's class
// — the class Executable.AppendProjection reads too.
func (m *Machine) env(sym *prog.Symbol, c int32) *fp.Env {
	env := &m.slots[sym.ID()*len(m.ex.comps)+int(c)]
	if env.Reads() == 0 {
		*env = *m.ex.classes[c].env(sym)
	}
	return env
}

// Compiler returns the name of the compiler that generated the current
// (innermost) frame's code. Application code uses it to model
// compilation-dependent behavior that is not floating-point semantics,
// such as undefined-behavior miscompilation (the Laghos xsw macro).
// Outside any frame it returns the baseline's compiler.
func (m *Machine) Compiler() string {
	m.compiler = true
	if len(m.stack) == 0 {
		return m.ex.baseline.Compiler
	}
	return m.ex.classes[m.stack[len(m.stack)-1].comp].compiler
}

// Depth returns the current simulated call-stack depth (for tests).
func (m *Machine) Depth() int { return len(m.stack) }

// Program returns the application this machine runs.
func (m *Machine) Program() *prog.Program { return m.ex.prog }

// Trace is what one run read of its executable beyond the Layout: the
// fp.Reads of every (symbol, compilation) slot it entered, and whether it
// read a compiler name. Execution is deterministic, so another executable
// of the same layout and test whose AppendProjection under the trace
// equals this one's would repeat the run bit for bit: the verifying trace
// of Mokhov, Mitchell and Peyton Jones, "Build Systems à la Carte" (ICFP
// 2018). A Trace is immutable.
type Trace struct {
	slots    []int32 // entered slots, ascending
	reads    []fp.Reads
	compiler bool
}

// Equal reports whether two traces record the same reads.
func (t *Trace) Equal(u *Trace) bool {
	return t.compiler == u.compiler && slices.Equal(t.slots, u.slots) && slices.Equal(t.reads, u.reads)
}

// Trace returns what the run so far has read.
func (m *Machine) Trace() *Trace {
	t := &Trace{compiler: m.compiler}
	for i := range m.slots {
		if r := m.slots[i].Reads(); r != 0 {
			t.slots = append(t.slots, int32(i))
			t.reads = append(t.reads, r)
		}
	}
	return t
}
