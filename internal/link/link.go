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
	// Files (the trusted compilation in a bisect search). Its compiler
	// performs the final link; the Intel driver substitutes SVML for libm
	// regardless of compile-time flags.
	Baseline comp.Compilation
	// Files assigns whole files to a different compilation (File Bisect
	// granularity), by file name.
	Files []Override
	// Symbols overrides individual exported symbols (Symbol Bisect
	// granularity), by symbol name. Both copies of the symbol's file are
	// linked; the named symbols take the given compilation and the file's
	// remaining exported symbols keep the baseline, all recompiled with
	// -fPIC as the paper requires.
	//
	// Files and Symbols are sorted by name, each name at most once: the
	// constructors (FileMixPlan, SymbolMixPlan, ...) build them so, and
	// Link rejects a plan whose lists are not.
	Symbols []Override
}

// Override names one file or exported symbol of a plan and the
// compilation it takes instead of the baseline.
type Override struct {
	Name string
	Comp comp.Compilation
}

// Key returns the canonical identity string of the executable this plan
// would build: program, baseline compilation, and every file- and
// symbol-level override in name order, each free-form name
// comp.KeyEscape'd and each compilation rendered through the equally
// escaped comp.Key, so no two distinct plans share a key. Two plans with
// equal keys link to executables that run identically (the toolchain is
// deterministic), which is what makes the key a build/run-cache address:
// a cache is consulted by plan identity first and the build happens only
// on a miss. Program identity is the program name (each app registers one
// program), and flit.EngineVersion fences the key format. Plans with
// unknown file or symbol names still serialize (Link would reject them).
// Prog must be non-nil.
//
// A first walk over the lists sizes the builder and asks comp.Key once
// per run of equal compilations (a bisect probe's overrides all share
// one); a second writes the key.
func (p Plan) Key() string {
	var buf [4]keyRun
	runs := buf[:0]
	name, base := comp.KeyEscape(p.Prog.Name), p.Baseline.Key()
	n := len(name) + len("|base=") + len(base)
	for _, os := range [2][]Override{p.Files, p.Symbols} {
		for i := range os {
			if i == 0 || os[i].Comp != os[i-1].Comp {
				runs = append(runs, keyRun{key: os[i].Comp.Key()})
			}
			r := &runs[len(runs)-1]
			r.n++
			n += len("|f:=") + len(os[i].Name) + len(r.key)
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	b.WriteString("|base=")
	b.WriteString(base)
	runs = writeOverrides(&b, "|f:", p.Files, runs)
	writeOverrides(&b, "|s:", p.Symbols, runs)
	return b.String()
}

// keyRun is n consecutive overrides of a plan list under one compilation,
// whose key is key.
type keyRun struct {
	key string
	n   int
}

// writeOverrides writes each override of os as tag, escaped name, '=' and
// its compilation's key, taking os's runs from the front of runs, and
// returns the runs left.
func writeOverrides(b *strings.Builder, tag string, os []Override, runs []keyRun) []keyRun {
	for i := 0; i < len(os); runs = runs[1:] {
		for end := i + runs[0].n; i < end; i++ {
			b.WriteString(tag)
			b.WriteString(comp.KeyEscape(os[i].Name))
			b.WriteByte('=')
			b.WriteString(runs[0].key)
		}
	}
	return runs
}

// Executable is a linked program image.
type Executable struct {
	prog     *prog.Program
	baseline comp.Compilation
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
// plans (override lists out of name order, unknown files or symbols,
// overriding a non-exported symbol), naming the first offending entry in
// list order; ABI-incompatibility does not fail the link — like a real
// toolchain the problem only appears when the binary runs.
func Link(p Plan) (*Executable, error) {
	if p.Prog == nil {
		return nil, errors.New("link: plan has no program")
	}
	if err := checkSorted("file", p.Files); err != nil {
		return nil, err
	}
	if err := checkSorted("symbol", p.Symbols); err != nil {
		return nil, err
	}
	// fileTab marks each overridden file, by its index in Prog.Files(),
	// with 1 + the index of its entry in p.Files; resolveSymbols turns it
	// into the file table. syms holds the overridden symbols in the order
	// of p.Symbols. These are the only lookups by name Link makes.
	files := p.Prog.Files()
	fileTab := make([]int32, len(files))
	for k, o := range p.Files {
		i := 0
		for i < len(files) && files[i].Name != o.Name {
			i++
		}
		if i == len(files) {
			return nil, fmt.Errorf("link: plan names unknown file %q", o.Name)
		}
		fileTab[i] = 1 + int32(k)
	}
	syms := make([]*prog.Symbol, len(p.Symbols))
	for i, o := range p.Symbols {
		sym := p.Prog.Symbol(o.Name)
		if sym == nil {
			return nil, fmt.Errorf("link: plan names unknown symbol %q", o.Name)
		}
		if !sym.Exported {
			// A non-exported symbol has no global entry; both strong
			// copies would collide or the override would silently bind to
			// the wrong copy. FLiT never attempts it.
			return nil, fmt.Errorf("link: symbol %q is not exported; %w", o.Name, ErrDuplicateStrong)
		}
		syms[i] = sym
	}
	// A mix links at most a few compilations: the baseline, the variable
	// and their -fPIC copies.
	ex := &Executable{prog: p.Prog, baseline: p.Baseline,
		comps: make([]comp.Compilation, 0, 4), classes: make([]*class, 0, 4)}
	ex.crash = abiHazard(p, syms)
	ex.resolveSymbols(p, fileTab, syms)
	return ex, nil
}

// checkSorted rejects an override list that is not sorted by name or
// names an entry twice: its key would not be the plan's canonical one.
func checkSorted(kind string, os []Override) error {
	for i := 1; i < len(os); i++ {
		if os[i].Name <= os[i-1].Name {
			return fmt.Errorf("link: plan %s overrides are not sorted and distinct: %q after %q",
				kind, os[i].Name, os[i-1].Name)
		}
	}
	return nil
}

// resolveSymbols fills comps and symTab from fileTab, which marks each
// file overridden in p with 1 + its index in p.Files, and syms, the
// symbols p.Symbols overrides: the one place the linker's binding rule
// lives. A file with no symbol override binds to its file-level
// compilation (its entry in p.Files, else the baseline). A file holding a
// symbol override is linked as two -fPIC copies: the overridden symbols
// bind to their p.Symbols entry, its other exported symbols to the
// baseline -fPIC copy. Internal symbols bind to their file-level
// compilation here; at run time Machine.Fn binds them to the copy of their
// nearest same-file caller instead, when one is on the stack.
//
// Compilations are interned in a fixed order, which Layout exposes: the
// files' in program order, then the overrides' and the baseline -fPIC
// copy's in the order of the first symbol ID that binds to each.
func (e *Executable) resolveSymbols(p Plan, fileTab []int32, syms []*prog.Symbol) {
	for i, k := range fileTab {
		c := e.baseline
		if k > 0 {
			c = p.Files[k-1].Comp
		}
		fileTab[i] = e.intern(c)
	}
	twoCopies := make([]bool, len(fileTab))
	e.symTab = make([]int32, e.prog.NumSymbols())
	// An overridden symbol's entry holds -1 - its index in p.Symbols
	// until the pass below interns its compilation.
	for i, sym := range syms {
		twoCopies[sym.FileID()] = true
		e.symTab[sym.ID()] = -1 - int32(i)
	}
	fpic := int32(-1)
	for id, v := range e.symTab {
		sym := e.prog.SymbolAt(id)
		switch {
		case v < 0:
			e.symTab[id] = e.intern(p.Symbols[-1-v].Comp)
		case sym.Exported && twoCopies[sym.FileID()]:
			if fpic < 0 {
				fpic = e.intern(e.baseline.WithFPIC())
			}
			e.symTab[id] = fpic
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

// abiHazard evaluates the deterministic binary-compatibility rules over a
// plan whose overridden symbols are syms: the file-mix hazard per file
// override, the symbol-mix hazard once per distinct (file, compilation)
// pair of the symbol overrides.
func abiHazard(p Plan, syms []*prog.Symbol) bool {
	for i := range p.Files {
		o := &p.Files[i] // by pointer: an Override is 80 bytes
		if o.Comp.Compiler != p.Baseline.Compiler && comp.FileMixHazard(o.Comp, p.Baseline, o.Name) {
			return true
		}
	}
	type pair struct {
		file int
		c    comp.Compilation
	}
	var buf [4]pair
	checked := buf[:0]
	for i := range p.Symbols {
		k := pair{syms[i].FileID(), p.Symbols[i].Comp}
		if slices.Contains(checked, k) {
			continue
		}
		checked = append(checked, k)
		if comp.SymbolMixHazard(k.c, syms[i].File) {
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
