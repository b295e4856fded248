// Package bisect implements the FLiT Bisect algorithms (paper §2.2–§2.5):
// Algorithm 1 (BisectAll/BisectOne) with its dynamic verification
// assertions, the BisectBiggest uniform-cost-search variant, and the
// hierarchical File-then-Symbol driver that searches real executables.
//
// The search operates on abstract items (file names or symbol names) through
// a user-supplied Test function mapping a set of items to a non-negative
// magnitude: 0 means no variability when exactly those items come from the
// variable compilation, positive means variability. Test executions are
// memoized — the paper's run counts assume the same linkage combination is
// never re-executed — and counted, since the number of program executions is
// the efficiency measure of the evaluation (Tables 2 and 4).
//
// The halving steps of Algorithm 1 are strictly sequential: every probe
// depends on the previous probe's outcome. A Searcher built with a
// speculative Submitter therefore races the probes either outcome would
// need next in the background and commits only the result the sequential
// algorithm would have chosen. Committed and speculative probes share one
// single-flight memo per search, so a set runs at most once and losers are
// entries of that memo. Execs() keeps the paper's sequential-trace
// accounting — it is identical at every parallelism — while SpecExecs()
// reports the extra speculative executions wall-clock was traded for. A
// failing set is memoized within a search too, but charged to Execs() on
// each committed visit, so SpecExecs() may read lower than the speculative
// work done.
package bisect

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/exec"
)

// TestFn quantifies the variability observed when exactly the given items
// are taken from the variable compilation. It must be deterministic, and
// safe for concurrent use when the Searcher speculates.
type TestFn func(items []string) (float64, error)

// Finding is one variability-inducing item with the magnitude it causes by
// itself (its singleton Test value).
type Finding struct {
	Item  string
	Value float64
}

// AssumptionError reports a violated search assumption: either Assumption 1
// (Unique Error) or Assumption 2 (Singleton Blame Site) failed a dynamic
// verification assertion, so the result set may contain false negatives.
type AssumptionError struct {
	Msg   string
	Items []string
}

func (e *AssumptionError) Error() string {
	if len(e.Items) == 0 {
		return "bisect: assumption violated: " + e.Msg
	}
	return fmt.Sprintf("bisect: assumption violated: %s (items %v)", e.Msg, e.Items)
}

// Searcher wraps a TestFn with memoization, execution counting, and —
// when built with a Submitter — speculative background evaluation. One
// goroutine drives a Searcher (calls Test/All/Biggest); the speculative
// evaluations it spawns run concurrently with that driving goroutine and
// meet it only in the memo.
type Searcher struct {
	fn  TestFn
	sub *exec.Submitter

	// memo is the per-search single-flight memo: committed and speculative
	// probes of one set share its entry, so a set reaches fn at most once
	// and a committed probe of a set in flight waits for it. Errors are
	// memoized too (fn is deterministic).
	memo *exec.Cache[float64]

	// The rest is touched only by the driving goroutine. ids assigns each
	// item a stable integer on first sight; memo keys are built from id
	// sequences. counted holds the sets the committed trace evaluated
	// without error, speculated the sets already submitted.
	ids        map[string]int
	counted    map[string]bool
	speculated map[string]bool
	execs      int // the paper's counter: what the sequential trace ran

	stop chan struct{}  // closed by drain: queued speculation never starts
	wg   sync.WaitGroup // speculative evaluations submitted and not finished
}

// NewSearcher creates a Searcher for one bisect search. It races probable
// future probes through sub while the committed probe runs inline; a nil
// submitter (e.g. from a sequential pool) disables speculation, giving the
// paper's original one-probe-at-a-time order. Findings and Execs() are
// bit-identical either way; only wall-clock and SpecExecs() differ.
// Execution counts accumulate across All/Biggest calls on the same
// Searcher.
func NewSearcher(fn TestFn, sub *exec.Submitter) *Searcher {
	if sub.Cap() < 1 {
		sub = nil
	}
	return &Searcher{
		fn:         fn,
		sub:        sub,
		memo:       exec.NewCache[float64](),
		ids:        make(map[string]int),
		counted:    make(map[string]bool),
		speculated: make(map[string]bool),
		stop:       make(chan struct{}),
	}
}

// Execs returns how many Test executions the committed sequential trace
// has performed: the first visit of a set costs one, memoized repeats are
// free (as in the paper's run accounting), and a failing set costs one on
// every visit. Speculative evaluations are excluded until — unless — the
// trace actually reaches them, so the count equals a sequential run's
// exactly, at every parallelism.
func (s *Searcher) Execs() int { return s.execs }

// SpecExecs returns the extra speculative executions performed beyond
// Execs: background probes whose result the committed trace never claimed.
// It is 0 without speculation and timing-dependent with it — wall-clock is
// what those executions bought. A failing set runs once per search but is
// charged on each committed visit, so SpecExecs may read lower than the
// speculative work actually done.
func (s *Searcher) SpecExecs() int {
	return max(int(s.memo.Metrics().Misses)-s.execs, 0)
}

// key returns the canonical memo key of an item set. The subsets the
// search manipulates (halves, subtractions) all preserve the relative
// order items had when first seen, so the cached per-item ids come out
// ascending and the key builds in O(n) — no per-probe re-sort. A
// caller-provided permutation falls back to sorting the ids, which keeps
// the key order-independent: {a,b} and {b,a} share one memo entry.
func (s *Searcher) key(items []string) string {
	ids := make([]int, len(items))
	ascending := true
	for i, it := range items {
		id, ok := s.ids[it]
		if !ok {
			id = len(s.ids)
			s.ids[it] = id
		}
		ids[i] = id
		if i > 0 && ids[i-1] >= id {
			ascending = false
		}
	}
	if !ascending {
		sort.Ints(ids)
	}
	b := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		b = append(b, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return string(b)
}

// eval runs fn on items through the memo: the first caller of a key
// computes it, and every other caller, committed or speculative, waits for
// that result.
func (s *Searcher) eval(key string, items []string) (float64, error) {
	return s.memo.Do(key, func() (float64, error) {
		v, err := s.fn(items)
		if err == nil && v < 0 {
			return 0, fmt.Errorf("bisect: Test returned negative value %g for %v", v, items)
		}
		return v, err
	})
}

// Test evaluates the metric on a set of items, memoized. This is the
// committed path, and its accounting replicates the sequential
// algorithm's exactly: the first committed visit of a set costs one
// execution (even if a background probe already computed it), repeats are
// free, and a failing set — memoized, but a crashed attempt still counts
// as a program execution — costs one on every visit.
func (s *Searcher) Test(items []string) (float64, error) {
	key := s.key(items)
	v, err := s.eval(key, items)
	if !s.counted[key] {
		s.execs++
		s.counted[key] = err == nil
	}
	return v, err
}

// speculate submits Test(items) for background evaluation when speculation
// is enabled and the set has been neither committed nor submitted. The
// result lands in the memo uncharged; it joins the paper's accounting only
// if the committed trace reaches the set.
func (s *Searcher) speculate(items []string) {
	if s.sub == nil || len(items) == 0 {
		return
	}
	key := s.key(items)
	if s.counted[key] || s.speculated[key] {
		return
	}
	s.speculated[key] = true
	cp := append([]string(nil), items...) // halves alias the caller's slice
	s.sub.Go(s.stop, &s.wg, func() { s.eval(key, cp) })
}

// drain drops queued speculation and waits out whatever already started,
// so no background evaluation outlives the search that spawned it and the
// counters are stable when All/Biggest return.
func (s *Searcher) drain() {
	close(s.stop)
	s.wg.Wait()
	s.stop = make(chan struct{})
}

// singletonPrefetchWidth bounds the singleton prefetch: once BisectOne has
// narrowed to this many items, the singleton tests its base case — and the
// "sorted by most influential" pass after it — will need are enqueued
// speculatively. Small on purpose: each prefetch past the blamed item is a
// wasted execution.
const singletonPrefetchWidth = 4

// All is procedure BisectAll of Algorithm 1: it finds every
// variability-inducing item, verifying the search assumptions dynamically.
// Findings are returned sorted by decreasing individual magnitude, the
// paper's "sorted by the most influential" ordering. The singleton values
// are free: BisectOne's base case already executed them.
func (s *Searcher) All(items []string) ([]Finding, error) {
	defer s.drain()
	var found []Finding
	t := append([]string(nil), items...)
	for {
		if len(t) > 1 {
			// BisectOne's first committed probe will be the left half;
			// race it against Test(t) itself.
			s.speculate(t[:len(t)/2])
		}
		v, err := s.Test(t)
		if err != nil {
			return found, err
		}
		if v == 0 {
			break
		}
		if len(t) == 0 {
			return found, &AssumptionError{
				Msg: "Test(∅) > 0: variability is not attributable to any searched item " +
					"(e.g. introduced by the link step)",
			}
		}
		g, next, err := s.one(t)
		if err != nil {
			return found, err
		}
		val, err := s.Test([]string{next})
		if err != nil {
			return found, err
		}
		found = append(found, Finding{Item: next, Value: val})
		t = subtract(t, g)
	}
	// Verification assertion (Algorithm 1, BisectAll line 8):
	// Test(items) must equal Test(found). Under Assumption 1 this proves
	// found == AV(items): no false negatives.
	vAll, err := s.Test(items)
	if err != nil {
		return found, err
	}
	vFound, err := s.Test(itemsOf(found))
	if err != nil {
		return found, err
	}
	if vAll != vFound {
		return found, &AssumptionError{
			Msg:   fmt.Sprintf("Test(items)=%g != Test(found)=%g; possible false negatives", vAll, vFound),
			Items: itemsOf(found),
		}
	}
	sort.SliceStable(found, func(i, j int) bool { return found[i].Value > found[j].Value })
	return found, nil
}

// one is procedure BisectOne of Algorithm 1. It returns the set of items
// that can safely be excluded from future searches (G ∪ ∆1 accumulated
// through the recursion) and the single found element.
func (s *Searcher) one(items []string) (exclude []string, next string, err error) {
	if len(items) == 1 {
		// Base-case assertion (Algorithm 1, BisectOne line 3): the
		// singleton must itself cause variability, or Assumption 2
		// (Singleton Blame Site) is violated.
		v, err := s.Test(items)
		if err != nil {
			return nil, "", err
		}
		if v == 0 {
			return nil, "", &AssumptionError{
				Msg:   "singleton does not reproduce variability: elements act only jointly",
				Items: items,
			}
		}
		return []string{items[0]}, items[0], nil
	}
	d1, d2 := items[:len(items)/2], items[len(items)/2:]
	if s.sub != nil {
		// Speculative halving: while the committed probe Test(∆1) runs
		// inline, the probes either branch would need next are raced in
		// the background — the right half itself (it is the base case when
		// it narrows to a singleton) and the left halves of both branches,
		// BisectOne's next committed probe whichever way Test(∆1) decides.
		// Unused results stay behind as entries of the per-search memo.
		s.speculate(d2)
		if len(d1) > 1 {
			s.speculate(d1[:len(d1)/2])
		}
		if len(d2) > 1 {
			s.speculate(d2[:len(d2)/2])
		}
		if len(items) <= singletonPrefetchWidth {
			// Singleton prefetch: the recursion is about to bottom out;
			// whichever of these the base case lands on is already warm,
			// and its value doubles as the finding's reported magnitude.
			for i := range items {
				s.speculate(items[i : i+1])
			}
		}
	}
	v, err := s.Test(d1)
	if err != nil {
		return nil, "", err
	}
	if v > 0 {
		return s.one(d1)
	}
	g, next, err := s.one(d2)
	if err != nil {
		return nil, "", err
	}
	// Test(∆1) = 0, so ∆1 is excluded from future searches together with
	// whatever the recursion excluded (Algorithm 1, BisectOne line 10).
	// The halves alias the caller's slice, so build a fresh exclusion set.
	exclude = make([]string, 0, len(g)+len(d1))
	exclude = append(append(exclude, g...), d1...)
	return exclude, next, nil
}

func subtract(items, remove []string) []string {
	rm := make(map[string]bool, len(remove))
	for _, r := range remove {
		rm[r] = true
	}
	out := items[:0:0]
	for _, it := range items {
		if !rm[it] {
			out = append(out, it)
		}
	}
	return out
}

func itemsOf(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Item
	}
	return out
}
