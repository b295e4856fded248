package experiments

import (
	"sync"
	"sync/atomic"

	"repro/internal/apps/mfem"
	"repro/internal/bisect"
	"repro/internal/comp"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/store"
)

// Engine bundles the execution substrate every experiment runs on: a worker
// pool that fans out independent (compilation, test) evaluations and a
// shared build/run cache memoizing repeated pairs across the matrix run,
// the bisect searches, and the injection campaign. The MFEM matrix results
// are computed once per engine and reused by every table and figure, as
// before.
//
// All outputs are bit-identical regardless of the engine's parallelism:
// every evaluation is a pure function of (compilation, test), and results
// are always collected in submission order.
type Engine struct {
	pool  *exec.Pool
	cache *flit.Cache
	shard exec.Shard

	mfemOnce sync.Once
	mfemRes  *flit.Results
	mfemErr  error

	bisectSearches atomic.Int64
	bisectExecs    atomic.Int64
}

// BisectStats aggregates the bisect counters over every search noted on
// this engine. Execs is the paper's execution count (the Tables 2/4 cost
// measure, identical at every -j).
type BisectStats struct {
	Searches int64
	Execs    int64
}

// NoteBisect folds one search report into the engine's bisect counters.
// Safe for concurrent use: the Table 2/4 fan-outs note from pool workers.
func (e *Engine) NoteBisect(r *bisect.Report) {
	if r == nil {
		return
	}
	e.bisectSearches.Add(1)
	e.bisectExecs.Add(int64(r.Execs))
}

// BisectStats snapshots the engine's bisect counters.
func (e *Engine) BisectStats() BisectStats {
	return BisectStats{
		Searches: e.bisectSearches.Load(),
		Execs:    e.bisectExecs.Load(),
	}
}

// NewEngine returns an engine running up to parallelism evaluations at
// once (<= 0 means one per CPU) with a fresh build/run cache.
func NewEngine(parallelism int) *Engine {
	return &Engine{pool: exec.New(parallelism), cache: flit.NewCache()}
}

// Pool returns the engine's worker pool.
func (e *Engine) Pool() *exec.Pool { return e.pool }

// Cache returns the engine's build/run cache.
func (e *Engine) Cache() *flit.Cache { return e.cache }

// AttachStore attaches a persistent store as the build/run cache's second
// tier: every in-memory miss consults it before building, every fresh
// computation writes through. Attach before the first experiment runs.
func (e *Engine) AttachStore(s store.Store) { e.cache.SetStore(s) }

// CacheMetrics snapshots the engine's cache counters — the numbers the
// CLI's -stats flag prints.
func (e *Engine) CacheMetrics() flit.CacheMetrics { return e.cache.Metrics() }

// SetShard restricts every driver of this engine to one shard of the
// deterministic job index space (matrix cells and baselines for the MFEM
// suite, whole searches for Table 2, site × OP' injections for Table 5).
// Call it before the first experiment runs — the memoized matrix results
// are computed once per engine. A sharded engine's outputs are partial by
// design; its purpose is to fill the cache for ExportArtifact.
func (e *Engine) SetShard(s exec.Shard) { e.shard = s }

// Shard reports the engine's shard assignment (zero = unsharded).
func (e *Engine) Shard() exec.Shard { return e.shard }

// Suite builds the paper's MFEM FLiT suite on this engine: 19 examples,
// baseline g++ -O0, speedups against g++ -O2.
func (e *Engine) Suite() *flit.Suite {
	return &flit.Suite{
		Prog:      mfem.Program(),
		Tests:     mfem.AllCases(),
		Baseline:  comp.Baseline(),
		Reference: comp.PerfReference(),
		Pool:      e.pool,
		Cache:     e.cache,
		Shard:     e.shard,
	}
}

// Workflow wires the MFEM suite into the multi-level workflow; Level-3
// bisect searches inherit the suite's pool and cache.
func (e *Engine) Workflow() *core.Workflow {
	return &core.Workflow{Suite: e.Suite(), Matrix: comp.Matrix()}
}

// Results runs (once per engine, memoized) the full 244-compilation ×
// 19-example matrix — 4,636 experimental results, as in §3.1.
func (e *Engine) Results() (*flit.Results, error) {
	e.mfemOnce.Do(func() {
		e.mfemRes, e.mfemErr = e.Suite().RunMatrix(comp.Matrix())
	})
	return e.mfemRes, e.mfemErr
}
