// Package exec is the shared parallel execution substrate of the
// reproduction: a worker pool that fans out independent (compilation, test)
// evaluations — the compilation × test matrix and each bisect step are
// independent program executions, which is what made the paper's search
// tractable on a cluster — and a concurrency-safe memoizing cache so the
// run of a repeated (build plan, test) pair executes once (mirroring
// FLiT's memoized bisect evaluations; the simulated link step itself is
// cheap map construction and is redone per evaluation).
//
// Everything scheduled through a Pool must be deterministic in its own
// right; the pool guarantees only that results are collected in submission
// order, so a parallel run is bit-identical to a sequential one regardless
// of completion order.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds how many evaluations run concurrently. The zero value and the
// nil pool are both valid and sequential, so callers can plumb an optional
// *Pool through without nil checks.
//
// A Pool carries no goroutines of its own: each ForEach/Map call spawns up
// to Workers of them for its own job set, so the bound is per fan-out call,
// not a process-wide semaphore. Nested use cannot deadlock, but it
// multiplies concurrency (an outer Map of n items whose work functions each
// run an inner Map admits up to Workers² goroutines). Every driver in this
// repository therefore parallelizes at exactly one level — the outermost
// set of independent evaluations — and runs nested searches sequentially,
// which keeps the configured worker count the true concurrency bound.
type Pool struct {
	workers int
}

// New returns a pool running up to n evaluations at once. n <= 0 means one
// worker per available CPU (GOMAXPROCS); New(1) keeps the paper's original
// one-at-a-time execution order.
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers reports the concurrency bound. A nil or zero pool is sequential.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// ForEach runs fn(i) for every i in [0, n), at most Workers at a time.
//
// Error semantics are deterministic: the error of the lowest failing index
// is returned, which is exactly the error a sequential loop would have
// stopped on. With more than one worker, later indices may still execute
// after an earlier one fails (their side effects are limited to cache
// fills); the returned error is unaffected.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.Workers()
	if w == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	if w > n {
		w = n
	}
	var next atomic.Int64
	next.Store(-1)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map evaluates fn over [0, n) through the pool and returns the results in
// index order — completion order never leaks into the output. On error the
// lowest failing index wins, as in ForEach.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
