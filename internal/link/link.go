// Package link simulates the build-and-link step that FLiT Bisect drives:
// compiling each translation unit under some compilation, mixing object
// files from the baseline and the variable compilation (File Bisect), and
// overriding individual exported symbols via the strong/weak-symbol trick
// (Symbol Bisect, paper §2.3 and Figure 3).
//
// Linking yields an Executable, which resolves once which compilation's
// "generated code" each symbol binds to. Running application code against
// it hands every function invocation an fp.Env with that compilation's
// floating-point semantics. Internal (non-exported) symbols cannot be
// overridden individually: like real translation units, they travel with
// whichever copy of their file the caller came from, decided per
// invocation from the call stack — which is exactly what makes the paper's
// "indirect finds" and -fPIC limitations appear.
package link

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/comp"
	"repro/internal/prog"
)

// ErrSegfault is reported when a mixed executable crashes at run time due
// to binary incompatibility between the compilers involved (paper §3.3).
var ErrSegfault = errors.New("link: mixed executable crashed (segmentation fault)")

// ErrDuplicateStrong is reported when two strong definitions of the same
// symbol reach the linker.
var ErrDuplicateStrong = errors.New("link: duplicate strong symbol")

// Plan describes one executable to build.
type Plan struct {
	// Prog is the application being built.
	Prog *prog.Program
	// Baseline is the compilation used for every file not listed in
	// FileComp (the trusted compilation in a bisect search). Its compiler
	// performs the final link; the Intel driver substitutes SVML for libm
	// regardless of compile-time flags.
	Baseline comp.Compilation
	// FileComp assigns whole files to a different compilation
	// (File Bisect granularity). Keys are file names.
	FileComp map[string]comp.Compilation
	// SymbolComp overrides individual exported symbols (Symbol Bisect
	// granularity). Keys are symbol names. Both copies of the symbol's
	// file are linked; the named symbols take the given compilation and
	// the file's remaining exported symbols keep the baseline, all
	// recompiled with -fPIC as the paper requires.
	SymbolComp map[string]comp.Compilation
}

// Key returns the canonical identity string of the executable this plan
// would build: program, baseline compilation, and every file- and
// symbol-level override in sorted order, each free-form name
// comp.KeyEscape'd and each compilation rendered through the equally
// escaped comp.Key, so no two distinct plans share a key. Two plans with
// equal keys link to executables that run identically (the toolchain is
// deterministic), which is what makes the key a build/run-cache address:
// a cache is consulted by plan identity first and the build happens only
// on a miss. Program identity is the program name (each app registers one
// program), and flit.EngineVersion fences the key format. Plans with unknown file or symbol names still
// serialize (Link would reject them). Prog must be non-nil.
func (p Plan) Key() string {
	var b strings.Builder
	b.WriteString(comp.KeyEscape(p.Prog.Name))
	b.WriteString("|base=")
	b.WriteString(p.Baseline.Key())
	for _, f := range slices.Sorted(maps.Keys(p.FileComp)) {
		b.WriteString("|f:")
		b.WriteString(comp.KeyEscape(f))
		b.WriteString("=")
		b.WriteString(p.FileComp[f].Key())
	}
	for _, s := range slices.Sorted(maps.Keys(p.SymbolComp)) {
		b.WriteString("|s:")
		b.WriteString(comp.KeyEscape(s))
		b.WriteString("=")
		b.WriteString(p.SymbolComp[s].Key())
	}
	return b.String()
}

// Executable is a linked program image.
type Executable struct {
	prog     *prog.Program
	baseline comp.Compilation
	fileComp map[string]comp.Compilation
	symComp  map[string]comp.Compilation
	crash    bool

	// comps lists the executable's distinct compilations, deduplicated by
	// == (so injection plans by pointer identity), and classes what each
	// of them generates (classOf, linked by the baseline's compiler).
	comps   []comp.Compilation
	classes []*class
	// symTab maps a symbol ID to the index in comps of the compilation the
	// symbol binds to when no same-file caller is on the stack: for an
	// exported symbol, the copy providing its strong definition; for an
	// internal one, its file's compilation. Like comps, it is written once
	// by Link and only read afterwards, so Machines on many goroutines can
	// share one Executable.
	symTab []int32

	layoutOnce sync.Once
	layout     string
}

// Link builds an executable from a plan. An error is returned for malformed
// plans (unknown files or symbols, overriding a non-exported symbol);
// ABI-incompatibility does not fail the link — like a real toolchain the
// problem only appears when the binary runs.
func Link(p Plan) (*Executable, error) {
	if p.Prog == nil {
		return nil, errors.New("link: plan has no program")
	}
	for f := range p.FileComp {
		if p.Prog.File(f) == nil {
			return nil, fmt.Errorf("link: plan names unknown file %q", f)
		}
	}
	for s := range p.SymbolComp {
		sym := p.Prog.Symbol(s)
		if sym == nil {
			return nil, fmt.Errorf("link: plan names unknown symbol %q", s)
		}
		if !sym.Exported {
			// A non-exported symbol has no global entry; both strong
			// copies would collide or the override would silently bind to
			// the wrong copy. FLiT never attempts it.
			return nil, fmt.Errorf("link: symbol %q is not exported; %w", s, ErrDuplicateStrong)
		}
	}
	ex := &Executable{
		prog:     p.Prog,
		baseline: p.Baseline,
		fileComp: p.FileComp,
		symComp:  p.SymbolComp,
	}
	ex.crash = ex.abiHazard()
	ex.resolveSymbols()
	return ex, nil
}

// resolveSymbols fills comps and symTab: the one place the linker's
// binding rule lives. A file with no symbol override binds to its
// file-level compilation (the plan's FileComp entry, else the baseline). A
// file holding a symbol override is linked as two -fPIC copies: the
// overridden symbols bind to their SymbolComp entry, its other exported
// symbols to the baseline -fPIC copy. Internal symbols bind to their
// file-level compilation here; at run time Machine.Fn binds them to the
// copy of their nearest same-file caller instead, when one is on the
// stack.
func (e *Executable) resolveSymbols() {
	files := e.prog.Files()
	fileTab := make([]int32, len(files))
	for i, f := range files {
		c, ok := e.fileComp[f.Name]
		if !ok {
			c = e.baseline
		}
		fileTab[i] = e.intern(c)
	}
	twoCopies := make([]bool, len(files))
	for s := range e.symComp {
		twoCopies[e.prog.Symbol(s).FileID()] = true
	}
	e.symTab = make([]int32, e.prog.NumSymbols())
	for id := range e.symTab {
		sym := e.prog.SymbolAt(id)
		c, overridden := e.symComp[sym.Name]
		switch {
		case !sym.Exported:
			e.symTab[id] = fileTab[sym.FileID()]
		case overridden:
			e.symTab[id] = e.intern(c)
		case twoCopies[sym.FileID()]:
			e.symTab[id] = e.intern(e.baseline.WithFPIC())
		default:
			e.symTab[id] = fileTab[sym.FileID()]
		}
	}
}

// intern returns the index of c in comps, appending it on first sight. An
// executable has a handful of distinct compilations, so a scan is cheaper
// than a map.
func (e *Executable) intern(c comp.Compilation) int32 {
	for i, have := range e.comps {
		if have == c {
			return int32(i)
		}
	}
	e.comps = append(e.comps, c)
	e.classes = append(e.classes, classOf(e.prog, c, e.baseline.Compiler))
	return int32(len(e.comps) - 1)
}

// abiHazard evaluates the deterministic binary-compatibility rules.
func (e *Executable) abiHazard() bool {
	for f, c := range e.fileComp {
		if c.Compiler != e.baseline.Compiler && comp.FileMixHazard(c, e.baseline, f) {
			return true
		}
	}
	seenFile := map[string]bool{}
	for s, c := range e.symComp {
		f := e.prog.Symbol(s).File
		if seenFile[f] {
			continue
		}
		seenFile[f] = true
		if comp.SymbolMixHazard(c, f) {
			return true
		}
	}
	return false
}

// Crashes reports whether running this executable segfaults.
func (e *Executable) Crashes() bool { return e.crash }

// Layout returns, computed once, the part of what a run of this
// executable reads that no Trace records: the program, the crash flag, the
// baseline compiler (Machine.Compiler outside any frame), the number of
// distinct compilations and symTab. Executables with equal layouts number
// their (symbol, compilation) slots alike, so one Trace projects each of
// them (AppendProjection), and two whose projections under the trace of a
// run are equal would repeat that run bit for bit. The string is opaque
// and must never be persisted.
func (e *Executable) Layout() string {
	e.layoutOnce.Do(func() { e.layout = e.buildLayout() })
	return e.layout
}

func (e *Executable) buildLayout() string {
	b := append([]byte(comp.KeyEscape(e.prog.Name)), 0)
	if e.crash {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(e.baseline.Compiler)))
	b = append(b, e.baseline.Compiler...)
	b = binary.AppendUvarint(b, uint64(len(e.comps)))
	b = binary.AppendUvarint(b, uint64(len(e.symTab)))
	for _, c := range e.symTab {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return string(b)
}

// AppendProjection appends to dst this executable's value of everything
// t records as read, encoded so that within one layout equal projections
// mean equal values: per slot the run entered, in t's order, the
// semantics fields its Env read (two bytes); every compilation's compiler
// name, when the run read one; then, for each entered slot whose Env
// carries an injection, its position in t and the injection's site,
// operation and epsilon bits.
func (e *Executable) AppendProjection(dst []byte, t *Trace) []byte {
	n := int32(len(e.comps))
	for i, s := range t.slots {
		p := e.classes[s%n].packed[s/n] & uint16(t.reads[i])
		dst = append(dst, byte(p), byte(p>>8))
	}
	if t.compiler {
		for _, cl := range e.classes {
			dst = binary.AppendUvarint(dst, uint64(len(cl.compiler)))
			dst = append(dst, cl.compiler...)
		}
	}
	for i, s := range t.slots {
		if cl := e.classes[s%n]; cl.injSym == int(s/n) {
			dst = binary.AppendUvarint(dst, uint64(i))
			dst = binary.AppendVarint(dst, int64(cl.inj.OpIndex))
			dst = append(dst, byte(cl.inj.Op))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(cl.inj.Eps))
		}
	}
	return dst
}

// Program returns the application this executable was built from.
func (e *Executable) Program() *prog.Program { return e.prog }

// Cost returns the deterministic runtime cost of executing the program from
// the given roots under this executable's symbol resolution: Work ×
// SpeedFactor summed over the reachable symbols in prog.Reachable order.
// Internal symbols are charged at their file's compilation.
func (e *Executable) Cost(roots ...string) float64 {
	var total float64
	for _, sym := range e.prog.Reachable(roots...) {
		total += sym.Work * comp.SpeedFactor(e.comps[e.symTab[sym.ID()]], sym)
	}
	return total
}
