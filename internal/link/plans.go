package link

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/comp"
	"repro/internal/prog"
)

// FullBuildPlan describes linking every file of the program under a single
// compilation — what the FLiT matrix runner does for each cell of the
// compilation matrix. A full build is its own baseline: it overrides no
// file, so its key names none, and the compilation's compiler drives the
// link.
func FullBuildPlan(p *prog.Program, c comp.Compilation) Plan {
	return Plan{Prog: p, Baseline: c}
}

// FullBuild links every file of the program under a single compilation.
func FullBuild(p *prog.Program, c comp.Compilation) (*Executable, error) {
	return Link(FullBuildPlan(p, c))
}

// FileMixPlan describes the Test executable of File Bisect (Figure 3,
// left): the named files compiled under the variable compilation and
// everything else under the baseline. The baseline compiler drives the
// link, matching FLiT's use of a common GCC-compatible runtime.
func FileMixPlan(p *prog.Program, baseline, variable comp.Compilation, files []string) Plan {
	return Plan{Prog: p, Baseline: baseline, Files: overrides(files, variable)}
}

// SymbolMixPlan describes the Test executable of Symbol Bisect (Figure 3,
// right): two -fPIC copies of one file — the named exported symbols strong
// from the variable compilation, the rest strong from the baseline — plus
// baseline objects for all other files.
func SymbolMixPlan(p *prog.Program, baseline, variable comp.Compilation, symbols []string) Plan {
	return Plan{Prog: p, Baseline: baseline, Symbols: overrides(symbols, variable.WithFPIC())}
}

// FPICProbePlan describes rebuilding one whole file under the variable
// compilation with -fPIC added and the rest under the baseline. Symbol
// Bisect runs this probe first: if the variability disappears, -fPIC
// defeated the optimization that caused it and the search cannot go below
// file granularity (paper §2.3).
func FPICProbePlan(p *prog.Program, baseline, variable comp.Compilation, file string) Plan {
	return FileMixPlan(p, baseline, variable.WithFPIC(), []string{file})
}

// overrides lists the given names under one compilation, as a plan holds
// them: sorted by name, a name given twice listed once. The caller's slice
// is left as it was; an unsorted one is sorted in a copy, on the stack for
// the few names a bisect probe passes.
func overrides(names []string, c comp.Compilation) []Override {
	if len(names) == 0 {
		return nil
	}
	if !slices.IsSorted(names) {
		var buf [16]string
		names = append(buf[:0], names...)
		slices.Sort(names)
	}
	os := make([]Override, 0, len(names))
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			os = append(os, Override{Name: n, Comp: c})
		}
	}
	return os
}

// Builder is a lazily-materialized build: it exposes the plan's cache key
// without linking, and links at most once, on first Build. A key-first
// cache (flit.Cache.RunAllPlanned) consults its store by
// Builder.Key and calls Build only on a miss, so a warm lookup never
// validates a plan, never scans for ABI hazards, and never allocates an
// Executable. A warm probe therefore costs its plan's constructor (one
// sorted override list) and one Plan.Key (one builder, one comp.Key per
// run of equal compilations) and nothing else. Safe for concurrent use:
// the matrix runner shares one builder across every test of a cell. Each
// bisect probe builds its own, and a bisect search probes each subset at
// most once.
type Builder struct {
	plan    Plan
	keyOnce sync.Once
	key     string

	once  sync.Once
	ex    *Executable
	err   error
	built atomic.Bool

	counted atomic.Bool
	skipped atomic.Bool
}

// NewBuilder wraps a plan for lazy materialization.
func NewBuilder(p Plan) *Builder { return &Builder{plan: p} }

// Plan returns the wrapped build plan.
func (b *Builder) Plan() Plan { return b.plan }

// Key returns the plan's cache key, computed once and without building.
func (b *Builder) Key() string {
	b.keyOnce.Do(func() { b.key = b.plan.Key() })
	return b.key
}

// Build links the plan on first call and returns the memoized outcome on
// every later one (including a memoized Link error — the toolchain is
// deterministic, so an unbuildable plan stays unbuildable).
func (b *Builder) Build() (*Executable, error) {
	b.once.Do(func() {
		b.ex, b.err = Link(b.plan)
		b.built.Store(true)
	})
	return b.ex, b.err
}

// Built reports whether the plan has been materialized (successfully or
// not). A warm cache hit leaves it false — the laziness the key-first
// build counters and their tests observe.
func (b *Builder) Built() bool { return b.built.Load() }

// MarkBuildCounted claims the one-time accounting token for this builder's
// materialization: the first caller gets true, everyone after false. The
// key-first cache uses it so a build shared by many lookups (every test of
// a matrix cell) is counted once in its metrics.
func (b *Builder) MarkBuildCounted() bool { return b.counted.CompareAndSwap(false, true) }

// MarkSkipCounted claims the one-time accounting token for a skipped
// build: true for the first caller that observed a cache hit while the
// plan was still unmaterialized, false after that or once the plan has
// been built. A builder that hits for some lookups and materializes for a
// later one legitimately counts on both sides — partially covered cells do
// both kinds of work.
func (b *Builder) MarkSkipCounted() bool {
	if b.built.Load() {
		return false
	}
	return b.skipped.CompareAndSwap(false, true)
}
