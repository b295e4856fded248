package link

import (
	"fmt"

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
// What a run can observe is exactly what Executable.Behavior identifies:
// every Env comes from the class of the compilation providing the frame,
// the binding from symTab and the stack, and the one non-fp fact an
// application may read is the frame's compiler name (Compiler). Keep it
// that way: an accessor exposing more of the plan would let two
// executables with equal Behavior run differently.
type Machine struct {
	ex    *Executable
	stack []frame
	// envs holds one fp.Env per (symbol, providing compilation) for the
	// lifetime of the run, at index symbolID*len(ex.comps) + the
	// compilation's index in ex.comps, and is filled on first entry: with
	// the class's shared Env, or for an injected symbol with one made for
	// this run. An injected function's dynamic instruction counter
	// therefore accumulates across invocations — an injection at static
	// instruction k of a function called many times fires on every pass
	// through its body, exactly like a real static-instruction
	// perturbation. Because ex.comps deduplicates by ==, an injection plan
	// is told apart by pointer identity, which is the sharing those
	// counters need.
	envs []*fp.Env
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
	m := &Machine{ex: e, envs: make([]*fp.Env, e.prog.NumSymbols()*len(e.comps))}
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

// env returns the run-scoped fp.Env for one symbol under the compilation at
// index c of ex.comps, taking it on first entry from that compilation's
// class — the same class Executable.Behavior keys on, so the key and the
// machine cannot drift apart.
func (m *Machine) env(sym *prog.Symbol, c int32) *fp.Env {
	slot := sym.ID()*len(m.ex.comps) + int(c)
	if env := m.envs[slot]; env != nil {
		return env
	}
	env := m.ex.classes[c].env(sym)
	m.envs[slot] = env
	return env
}

// Compiler returns the name of the compiler that generated the current
// (innermost) frame's code. Application code uses it to model
// compilation-dependent behavior that is not floating-point semantics,
// such as undefined-behavior miscompilation (the Laghos xsw macro).
// Outside any frame it returns the baseline's compiler.
func (m *Machine) Compiler() string {
	if len(m.stack) == 0 {
		return m.ex.baseline.Compiler
	}
	return m.ex.classes[m.stack[len(m.stack)-1].comp].compiler
}

// Depth returns the current simulated call-stack depth (for tests).
func (m *Machine) Depth() int { return len(m.stack) }

// Program returns the application this machine runs.
func (m *Machine) Program() *prog.Program { return m.ex.prog }
