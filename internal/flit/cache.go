package flit

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
	"repro/internal/store"
)

// CacheKeyer is implemented by test cases whose run identity is not fully
// captured by Name() — e.g. the MPI variants of the MFEM examples, which
// share a name with their sequential counterpart but traverse the mesh in
// rank-partitioned order. The build/run cache keys on CacheKey() when
// present and Name() otherwise.
type CacheKeyer interface {
	CacheKey() string
}

// TestKey resolves the cache identity of a test case, unwrapping metric
// overrides: WithCompare changes only how results are judged, not what a
// run produces, so digit-restricted views of the same test share cached
// executions.
func TestKey(t TestCase) string {
	for {
		if k, ok := t.(CacheKeyer); ok {
			return k.CacheKey()
		}
		if u, ok := t.(interface{ Unwrap() TestCase }); ok {
			t = u.Unwrap()
			continue
		}
		return t.Name()
	}
}

// PlanRunKey is the canonical identity of one test execution: the build
// plan's key and the test's cache key, NUL-separated. link.Plan.Key is the
// only key an executable has (its injectivity is pinned by
// FuzzPlanKeyInjective), so every cache entry and artifact record is
// addressed without linking anything. The plan key is escape-encoded and
// NUL-free and the test key is escaped here, so no two distinct (program,
// build plan, test) tuples share a run key — the injectivity the build/run
// cache and the shard-artifact merge depend on, enforced by
// FuzzRunKeyInjective.
func PlanRunKey(b *link.Builder, t TestCase) string {
	return b.Key() + "\x00" + comp.KeyEscape(TestKey(t))
}

type runVal struct {
	res Result
	err error
}

// Cache memoizes test runs keyed by (program, build plan, test): the
// concurrency-safe equivalent of FLiT's memoized bisect evaluations, where
// the same linkage combination is never re-executed. (The simulated link
// step is cheap map construction and is not memoized.) Cached Results are
// shared — callers must treat them as read-only, which every comparison in
// the reproduction does. A nil *Cache is valid and simply runs everything.
//
// Under the plan-key entries sits a second memo keyed by what a run
// read (runMemo): most compilations differ only in flags a test never
// exercises, so a plan-key miss whose executable agrees with an earlier
// run on everything that run read shares its Result instead of executing
// again. Only the plan-key entries are exported, persisted or seeded; the
// run memo is process-local, and only its counters (CacheMetrics.Execs)
// show outside the process.
type Cache struct {
	runs  *exec.Cache[runVal]
	execs runMemo

	// store, when non-nil, is the persistent second tier (SetStore):
	// consulted key-first on every in-memory miss before any build work,
	// written through after every computation, fenced to this engine
	// version. storeC counts its traffic; see persist.go.
	store  store.Store
	storeC storeCounters

	// Key-first build accounting: builds counts plans the key-first API
	// actually materialized (at most once per Builder, however many lookups
	// shared it); skippedBuilds counts builders that served at least one
	// cache hit while still unmaterialized — the executables a warm or
	// warm-started run never constructed. Fully covered runs show
	// builds == 0; the CLI surfaces both under -stats.
	builds        atomic.Int64
	skippedBuilds atomic.Int64

	// baseline is the union of the warm-start artifacts' records; it is
	// non-nil once WarmStart has been called, which is what turns Delta on.
	baseline *recordSet
}

// NewCache returns an empty build/run cache.
func NewCache() *Cache {
	return &Cache{runs: exec.NewCache[runVal](), execs: runMemo{groups: map[string][]tracedRuns{}}}
}

// RunAllPlanned is the memoizing form of the package-level RunAll: the
// first evaluation of a (plan, test) pair executes, every repeat — across
// bisect steps, searches, and experiment drivers — is a cache hit with a
// bit-identical Result. The cache is consulted by plan identity
// (PlanRunKey — the string a built Executable's RunKey would be), and the
// plan is materialized through the builder only on a miss. A
// warm hit therefore runs no link step, no ABI-hazard scan, and no test —
// the fast path every covered cell of a warm-started campaign takes. A
// persistent-store hit is the same fast path one tier out: the store is
// consulted by the same plan key before the builder materializes, so a
// second process sharing the store builds nothing for covered cells.
// Errors, whether from the build or the run, are memoized too: a
// deterministic toolchain fails the same way every time.
//
// A plan that does build executes only if no earlier run of the test read
// values this executable shares (see run); the plan-key entry and the
// store write-through are the same either way.
func (c *Cache) RunAllPlanned(t TestCase, b *link.Builder) (Result, error) {
	if c == nil {
		ex, err := b.Build()
		if err != nil {
			return Result{}, err
		}
		return RunAll(t, ex)
	}
	key := PlanRunKey(b, t)
	computed := false
	v, _ := c.runs.Do(key, func() (runVal, error) {
		if v, ok := c.storeGetRun(key); ok {
			return v, nil
		}
		computed = true
		ex, err := b.Build()
		if err != nil {
			v := runVal{err: err}
			c.storePutRun(key, v)
			return v, nil
		}
		v := c.run(t, ex)
		c.storePutRun(key, v)
		return v, nil
	})
	c.noteBuilder(b, !computed)
	return v.res, v.err
}

// run executes t on ex unless an earlier run of t on an executable of the
// same layout read only values ex shares, whose Result is bit-identical
// to what running ex would produce.
func (c *Cache) run(t TestCase, ex *link.Executable) runVal {
	key := ex.Layout() + "\x00" + comp.KeyEscape(TestKey(t))
	if v, ok := c.execs.lookup(key, ex); ok {
		return v
	}
	r, tr, err := runTraced(t, ex)
	v := runVal{res: r, err: err}
	c.execs.add(key, ex, tr, v)
	return v
}

// runMemo groups runs by (link.Executable.Layout, escaped TestKey) and
// keeps, per group, every distinct trace its runs read, each with their
// Results keyed by projection. At -j > 1 two runs of equal projections may
// both execute before either lands; they store the same bits.
type runMemo struct {
	mu     sync.Mutex
	groups map[string][]tracedRuns
	buf    []byte // projection scratch
	// ran counts tests executed, shared lookups answered from the memo,
	// entries distinct (trace, projection) pairs stored.
	ran, shared, entries atomic.Int64
}

type tracedRuns struct {
	trace *link.Trace
	runs  map[string]runVal
}

func (m *runMemo) metrics() exec.Metrics {
	return exec.Metrics{Hits: m.shared.Load(), Misses: m.ran.Load(), Entries: int(m.entries.Load())}
}

// lookup projects ex under each trace of its group, in the order they
// were first read, and returns the first stored run it matches.
func (m *runMemo) lookup(key string, ex *link.Executable) (runVal, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tr := range m.groups[key] {
		m.buf = ex.AppendProjection(m.buf[:0], tr.trace)
		if v, ok := tr.runs[string(m.buf)]; ok {
			m.shared.Add(1)
			return v, true
		}
	}
	return runVal{}, false
}

// add stores v, the run of ex that read tr.
func (m *runMemo) add(key string, ex *link.Executable, tr *link.Trace, v runVal) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ran.Add(1)
	g := m.groups[key]
	i := slices.IndexFunc(g, func(have tracedRuns) bool { return have.trace.Equal(tr) })
	if i < 0 {
		i = len(g)
		m.groups[key] = append(g, tracedRuns{trace: tr, runs: map[string]runVal{}})
	}
	runs := m.groups[key][i].runs
	k := string(ex.AppendProjection(nil, tr))
	if _, had := runs[k]; !had {
		m.entries.Add(1)
	}
	runs[k] = v
}

// noteBuilder folds one key-first lookup into the build counters, charging
// each builder at most once per side.
func (c *Cache) noteBuilder(b *link.Builder, hit bool) {
	if b.Built() {
		if b.MarkBuildCounted() {
			c.builds.Add(1)
		}
		return
	}
	if hit && b.MarkSkipCounted() {
		c.skippedBuilds.Add(1)
	}
}

// BuildStats reports how many plans the key-first API materialized and how
// many builders were answered from the cache without ever linking.
func (c *Cache) BuildStats() (builds, skipped int64) {
	if c == nil {
		return 0, 0
	}
	return c.builds.Load(), c.skippedBuilds.Load()
}

// CacheMetrics snapshots the memos of a build/run cache, plus the
// key-first build accounting: Builds counts plans actually materialized
// through RunAllPlanned, SkippedBuilds the builders whose every consulted
// entry was already cached — executables a warm run never constructed.
type CacheMetrics struct {
	Runs exec.Metrics
	// Costs is always zero: runtimes are derived from the plan
	// (matrixCosts), never looked up. The field stays for readers that
	// report cost lookups.
	Costs exec.Metrics
	// Execs is the run memo under the plan-key runs: Misses are the tests
	// actually executed, Hits the plan-key misses answered by an earlier
	// run whose every read value the executable shares, Entries the
	// distinct (trace, projection) pairs stored.
	Execs         exec.Metrics
	Builds        int64
	SkippedBuilds int64
	// Store is the persistent tier's traffic; zero (Enabled false) when no
	// store is attached.
	Store StoreMetrics
}

// Metrics snapshots hit/miss counters and occupancy of every memo — the
// observability surface behind the CLI's -stats flag.
func (c *Cache) Metrics() CacheMetrics {
	if c == nil {
		return CacheMetrics{}
	}
	return CacheMetrics{
		Runs:          c.runs.Metrics(),
		Execs:         c.execs.metrics(),
		Builds:        c.builds.Load(),
		SkippedBuilds: c.skippedBuilds.Load(),
		Store:         c.StoreMetrics(),
	}
}
