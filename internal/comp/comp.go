// Package comp models compilations: the (Compiler, Optimization Level,
// Switches) triples of the FLiT paper, the compiler "personalities" that
// decide which value-changing transformations each triple applies to each
// function, a deterministic cost model for the performance axis, and the
// binary-compatibility hazards observed when object files from different
// compilers are linked together.
//
// Real compilers are unavailable in this reproduction (see DESIGN.md), so a
// compilation is interpreted: it maps every symbol of a program to an
// fp.Semantics describing the floating-point transformations in force in
// that function's generated code. Everything is a pure function of the
// compilation triple and the symbol, made heterogeneous across functions
// with a deterministic FNV hash — re-running a compilation always produces
// the same "generated code".
package comp

import (
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fp"
)

// Compiler names used throughout the reproduction.
const (
	GCC   = "g++"
	Clang = "clang++"
	ICPC  = "icpc"
	XLC   = "xlc++"
)

// OptLevels is the base optimization ladder used by the MFEM study.
var OptLevels = []string{"-O0", "-O1", "-O2", "-O3"}

// InjectPlan plants a floating-point perturbation in one function of the
// compilation, modeling the paper's custom LLVM injection pass (§3.5).
type InjectPlan struct {
	Symbol string
	Inj    fp.Injection
}

// Compilation is the full configuration of how to compile source files: the
// paper's triple plus the -fPIC position-independent flag that Symbol Bisect
// adds, and an optional injection plan.
type Compilation struct {
	Compiler string
	OptLevel string
	Switches string // a single switch combination, e.g. "-mavx2 -mfma"
	FPIC     bool
	Inject   *InjectPlan
}

// String renders the compilation the way the paper writes it,
// e.g. "g++ -O2 -funsafe-math-optimizations".
func (c Compilation) String() string {
	s := c.Compiler + " " + c.OptLevel
	if c.Switches != "" {
		s += " " + c.Switches
	}
	if c.FPIC {
		s += " -fPIC"
	}
	return s
}

// KeyEscape makes a string safe to embed as one field of a composite cache
// key: the structural characters the key formats of this repository join
// fields with ('|', '=', the NUL separator between executable and test key)
// and the escape character itself are percent-encoded. Escaped fields can
// be concatenated with those separators without two distinct field tuples
// ever serializing to the same key — the injectivity the build/run cache
// and the shard-artifact format depend on (and the key fuzz test enforces).
func KeyEscape(s string) string {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%', '|', '=', 0:
			return keyEscaper.Replace(s)
		}
	}
	return s
}

var keyEscaper = strings.NewReplacer("%", "%25", "|", "%7C", "=", "%3D", "\x00", "%00")

// Key is a canonical identity string usable as a map key; it includes the
// injection plan so injected and clean compilations never collide. Every
// field is KeyEscape'd, so distinct compilations always have distinct keys.
//
// Keys are interned: the escape/concat serialization runs once per distinct
// compilation value for the life of the process, and every further Key call
// is a lookup returning the shared string. Build-plan keys concatenate one
// compilation key per file or symbol override, and the result analyzers
// (BestAverageCompilation, artifact export) key maps by compilation inside
// O(tests × compilations) loops — interning turns all of that repeated
// serialization into map hits. The intern table is keyed by value (an
// injection plan is compared by contents, not by pointer), so the working
// set is bounded by the number of distinct compilations a process ever
// evaluates — a few thousand for the full matrix plus the injection
// campaign.
func (c Compilation) Key() string {
	ik := internKey{c: c}
	ik.c.Inject = nil
	if c.Inject != nil {
		ik.hasInj = true
		ik.injSym = c.Inject.Symbol
		ik.injIdx = c.Inject.Inj.OpIndex
		ik.injOp = c.Inject.Inj.Op
		ik.injEps = math.Float64bits(c.Inject.Inj.Eps)
	}
	if v, ok := keyInterns.Load(ik); ok {
		return v.(string)
	}
	v, _ := keyInterns.LoadOrStore(ik, c.buildKey())
	return v.(string)
}

// internKey is the comparable identity the key intern table is addressed
// by: the compilation with its injection plan flattened from a pointer to
// fields, so logically equal plans share one entry regardless of which
// WithInjection call allocated them. The epsilon is identified by its
// IEEE-754 bit pattern, exactly as the serialized key renders it — float
// equality would conflate +0/-0 (equal under ==, distinct keys) and lose
// NaN entries (never equal to themselves).
type internKey struct {
	c      Compilation
	injSym string
	injIdx int
	injOp  fp.InjectOp
	injEps uint64
	hasInj bool
}

var keyInterns sync.Map // internKey -> string

// buildKey serializes the compilation; Key memoizes it per distinct value.
// The injection epsilon is rendered as its IEEE-754 bit pattern: exact (two
// injections differing anywhere in the float have distinct keys, which a
// rounded decimal rendering could not promise) and cheaper than reflective
// formatting.
func (c Compilation) buildKey() string {
	k := KeyEscape(c.Compiler) + "|" + KeyEscape(c.OptLevel) + "|" + KeyEscape(c.Switches)
	if c.FPIC {
		k += "|fpic"
	}
	if c.Inject != nil {
		k += "|inject=" + KeyEscape(c.Inject.Symbol) +
			"|" + strconv.Itoa(c.Inject.Inj.OpIndex) +
			"|" + KeyEscape(string(byte(c.Inject.Inj.Op))) +
			"|" + strconv.FormatUint(math.Float64bits(c.Inject.Inj.Eps), 16)
	}
	return k
}

// WithFPIC returns a copy of c compiled with -fPIC (used by Symbol Bisect).
func (c Compilation) WithFPIC() Compilation {
	c.FPIC = true
	return c
}

// WithInjection returns a copy of c carrying an injection plan.
func (c Compilation) WithInjection(symbol string, inj fp.Injection) Compilation {
	c.Inject = &InjectPlan{Symbol: symbol, Inj: inj}
	return c
}

// optNum converts "-O3" to 3. Unknown levels behave like -O2.
func optNum(level string) int {
	switch level {
	case "-O0":
		return 0
	case "-O1":
		return 1
	case "-O2":
		return 2
	case "-O3":
		return 3
	default:
		return 2
	}
}

// has reports whether the switch string contains the given flag token.
func (c Compilation) has(flag string) bool {
	if c.Switches == "" {
		return false
	}
	for _, f := range strings.Split(c.Switches, " ") {
		if f == flag {
			return true
		}
	}
	// Multi-token flags such as "-fp-model fast=2".
	return strings.Contains(" "+c.Switches+" ", " "+flag+" ") ||
		strings.HasSuffix(c.Switches, flag) && strings.Contains(flag, " ")
}

// hasSub reports whether the switch string contains flag as a substring
// (for multi-word flags like "-fp-model fast=2").
func (c Compilation) hasSub(flag string) bool {
	return strings.Contains(c.Switches, flag)
}

// hash64 produces the deterministic per-decision hash that stands in for
// the incidental heterogeneity of real code generation (which loops
// vectorize, which calls inline, ...): 64-bit FNV-1a over the parts, each
// followed by a NUL byte.
func hash64(parts ...string) uint64 {
	h := fnvOffset
	for _, p := range parts {
		h = h.part(p)
	}
	return uint64(h)
}

// fnv64a is a 64-bit FNV-1a state. It is updated by value, so hashing
// allocates nothing: no hash.Hash, no []byte conversion.
type fnv64a uint64

const (
	fnvOffset fnv64a = 14695981039346656037
	fnvPrime  fnv64a = 1099511628211
)

// str hashes the bytes of s.
func (h fnv64a) str(s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64a(s[i])) * fnvPrime
	}
	return h
}

// part hashes s as one hash64 part: its bytes, then the NUL byte.
func (h fnv64a) part(s string) fnv64a { return h.str(s) * fnvPrime }

// tripleHash is the state of a hash64 whose first part is c's
// "compiler|opt|switches" triple, hashed without building that string.
func tripleHash(c Compilation) fnv64a {
	return fnvOffset.str(c.Compiler).str("|").str(c.OptLevel).str("|").part(c.Switches)
}

// gate returns true for pct percent of (parts...) keys, deterministically.
func gate(pct int, parts ...string) bool {
	if pct <= 0 {
		return false
	}
	if pct >= 100 {
		return true
	}
	return hash64(parts...)%100 < uint64(pct)
}
