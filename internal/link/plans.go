package link

import (
	"sync"
	"sync/atomic"

	"repro/internal/comp"
	"repro/internal/prog"
)

// FullBuildPlan describes linking every file of the program under a single
// compilation — what the FLiT matrix runner does for each cell of the
// compilation matrix. The compilation's own compiler drives the link.
func FullBuildPlan(p *prog.Program, c comp.Compilation) Plan {
	fileComp := make(map[string]comp.Compilation, len(p.Files()))
	for _, f := range p.Files() {
		fileComp[f.Name] = c
	}
	return Plan{Prog: p, Baseline: c, FileComp: fileComp, Driver: c.Compiler}
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
	fileComp := make(map[string]comp.Compilation, len(files))
	for _, f := range files {
		fileComp[f] = variable
	}
	return Plan{Prog: p, Baseline: baseline, FileComp: fileComp}
}

// SymbolMixPlan describes the Test executable of Symbol Bisect (Figure 3,
// right): two -fPIC copies of one file — the named exported symbols strong
// from the variable compilation, the rest strong from the baseline — plus
// baseline objects for all other files.
func SymbolMixPlan(p *prog.Program, baseline, variable comp.Compilation, symbols []string) Plan {
	symComp := make(map[string]comp.Compilation, len(symbols))
	for _, s := range symbols {
		symComp[s] = variable.WithFPIC()
	}
	return Plan{Prog: p, Baseline: baseline, SymbolComp: symComp}
}

// FPICProbePlan describes rebuilding one whole file under the variable
// compilation with -fPIC added and the rest under the baseline. Symbol
// Bisect runs this probe first: if the variability disappears, -fPIC
// defeated the optimization that caused it and the search cannot go below
// file granularity (paper §2.3).
func FPICProbePlan(p *prog.Program, baseline, variable comp.Compilation, file string) Plan {
	return FileMixPlan(p, baseline, variable.WithFPIC(), []string{file})
}

// Builder is a lazily-materialized build: it exposes the plan's cache key
// without linking, and links at most once, on first Build. A key-first
// cache (flit.Cache.RunAllPlanned/CostPlanned) consults its store by
// Builder.Key and calls Build only on a miss, so a warm lookup never
// validates a plan, never scans for ABI hazards, and never allocates an
// Executable. Safe for concurrent use: the matrix runner shares one
// builder across every test of a cell and the bisect searcher across the
// speculative probes of one subset.
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
