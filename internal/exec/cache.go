package exec

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrComputePanicked is the sentinel error waiters of a cache entry
// observe when the computation they were blocked on panicked instead of
// returning. The panicking caller sees the panic itself (Do does not
// recover); everyone else sharing the entry gets this error rather than a
// silently-memoized zero value, and the key recomputes on next use.
var ErrComputePanicked = errors.New("exec: cache computation panicked")

// Cache is a concurrency-safe memoizing map with single-flight semantics:
// for each key the compute function runs exactly once, concurrent callers
// of the same key block until the first computation finishes, and every
// caller observes the same value. Values must be treated as immutable by
// all callers — they are shared, not copied.
//
// The reproduction uses it to memoize test runs keyed by build plan: the
// simulated toolchain is deterministic, so a cache hit is bit-identical to
// a re-run, and repeated evaluations during bisect hit the cache instead
// of re-executing the program. Lookups are keyed by the plan before
// anything is built, so a hit links nothing either.
// Errors are memoized too (a deterministic toolchain fails the same way
// every time).
type Cache[V any] struct {
	mu     sync.Mutex
	m      map[string]*cacheEntry[V]
	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry[V any] struct {
	key       string
	done      chan struct{}
	val       V
	err       error
	completed bool // guarded by Cache.mu
	// seeded marks an entry installed by Seed (imported from an artifact)
	// rather than computed here; uses counts how many Do calls this entry
	// answered. Both guarded by Cache.mu — the provenance the incremental
	// campaign engine's delta detector reads back through EachInfo.
	seeded bool
	uses   int64
}

// NewCache returns an empty cache.
func NewCache[V any]() *Cache[V] { return &Cache[V]{m: make(map[string]*cacheEntry[V])} }

// Do returns the memoized value for key, computing it with fn on first use.
// A nil cache computes without memoizing, so callers can plumb an optional
// cache through without nil checks.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (V, error) {
	if c == nil {
		return fn()
	}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		e.uses++
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.done
		return e.val, e.err
	}
	e := &cacheEntry[V]{key: key, done: make(chan struct{}), uses: 1}
	c.m[key] = e
	c.mu.Unlock()
	c.misses.Add(1)
	// The done channel must close even if fn panics (a waiter blocked on
	// <-e.done would otherwise deadlock forever). On panic the entry is
	// dropped from the map so the key can be recomputed, and waiters get
	// ErrComputePanicked — never a fabricated zero value with a nil error,
	// which downstream code would memoize into results.
	completed := false
	defer func() {
		c.mu.Lock()
		if completed {
			e.completed = true
		} else {
			e.err = ErrComputePanicked
			delete(c.m, e.key)
		}
		c.mu.Unlock()
		close(e.done)
	}()
	val, err := fn()
	e.val, e.err = val, err
	completed = true
	return val, err
}

// Seed installs a completed entry without running a computation — the
// import path for shard artifacts. It reports whether the entry was
// installed; an existing entry (computed, seeded, or in flight) is never
// overwritten, so a seed can only agree with what a computation would have
// produced. Seeding counts as neither a hit nor a miss.
func (c *Cache[V]) Seed(key string, val V, err error) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return false
	}
	e := &cacheEntry[V]{key: key, done: make(chan struct{}), val: val, err: err, completed: true, seeded: true}
	close(e.done)
	c.m[key] = e
	return true
}

// Each snapshots every completed entry and calls fn for each, in unspecified
// order (callers sort). In-flight computations are skipped — an artifact
// export captures what has finished, which is everything once the owning
// driver returns.
func (c *Cache[V]) Each(fn func(key string, val V, err error)) {
	c.EachInfo(func(key string, val V, err error, _ EntryInfo) { fn(key, val, err) })
}

// EntryInfo is the provenance of one completed cache entry: whether its
// value was seeded from an artifact rather than computed here, and how many
// Do calls this entry answered (seeding itself counts as none; the caller
// that computed a fresh entry counts as one). The delta detector of the
// incremental campaign engine classifies keys with it: a seeded entry with
// uses is a baseline hit, a seeded entry without uses is a dropped baseline
// key, an unseeded entry is fresh work.
type EntryInfo struct {
	Seeded bool
	Uses   int64
}

// EachInfo is Each with each entry's provenance attached.
func (c *Cache[V]) EachInfo(fn func(key string, val V, err error, info EntryInfo)) {
	if c == nil {
		return
	}
	type snap struct {
		key  string
		val  V
		err  error
		info EntryInfo
	}
	c.mu.Lock()
	entries := make([]snap, 0, len(c.m))
	for _, e := range c.m {
		if e.completed {
			entries = append(entries, snap{key: e.key, val: e.val, err: e.err,
				info: EntryInfo{Seeded: e.seeded, Uses: e.uses}})
		}
	}
	c.mu.Unlock()
	for _, s := range entries {
		fn(s.key, s.val, s.err, s.info)
	}
}

// Len reports how many distinct keys are resident (computed, seeded, or in
// flight).
func (c *Cache[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Metrics is a point-in-time snapshot of a cache's counters.
type Metrics struct {
	Hits    int64
	Misses  int64
	Entries int
}

// Metrics snapshots the cache's counters and occupancy.
func (c *Cache[V]) Metrics() Metrics {
	if c == nil {
		return Metrics{}
	}
	return Metrics{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Entries: c.Len(),
	}
}
