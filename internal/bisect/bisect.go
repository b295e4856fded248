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
// depends on the previous probe's outcome, so a Searcher runs its probes
// one at a time, in the paper's order. Parallelism lives a level up, where
// searches are independent (a report's per-file symbol searches, the
// whole-search fan-outs of Tables 2 and 4).
package bisect

import (
	"fmt"
	"sort"
)

// TestFn quantifies the variability observed when exactly the given items
// are taken from the variable compilation. It must be deterministic.
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

// Searcher wraps a TestFn with memoization and execution counting. One
// goroutine drives a Searcher (calls Test/All/Biggest) and owns all of
// its state.
type Searcher struct {
	fn TestFn

	// memo holds the outcome of every set the search has evaluated, keyed
	// by key(set). Errors are memoized too (fn is deterministic).
	memo map[string]outcome
	// ids assigns each item a stable integer on first sight; memo keys are
	// built from id sequences in the scratch buffers idBuf and keyBuf, so
	// only a set's first visit allocates its key string.
	ids    map[string]int
	idBuf  []int
	keyBuf []byte
	execs  int // the paper's counter
}

// outcome is one memoized evaluation of fn.
type outcome struct {
	val float64
	err error
}

// NewSearcher creates a Searcher for one bisect search. Execution counts
// accumulate across All/Biggest calls on the same Searcher.
func NewSearcher(fn TestFn) *Searcher {
	return &Searcher{fn: fn, memo: make(map[string]outcome), ids: make(map[string]int)}
}

// Execs returns how many Test executions the search has performed: the
// first visit of a set costs one, memoized repeats are free (as in the
// paper's run accounting), and a failing set costs one on every visit.
func (s *Searcher) Execs() int { return s.execs }

// key returns the canonical memo key of an item set, built in the
// Searcher's scratch buffer: it is valid only until the next call. The
// subsets the search manipulates (halves, subtractions) all preserve the
// relative order items had when first seen, so the cached per-item ids
// come out ascending and the key builds in O(n) — no per-probe re-sort. A
// caller-provided permutation falls back to sorting the ids, which keeps
// the key order-independent: {a,b} and {b,a} share one memo entry.
func (s *Searcher) key(items []string) []byte {
	ids := s.idBuf[:0]
	ascending := true
	for i, it := range items {
		id, ok := s.ids[it]
		if !ok {
			id = len(s.ids)
			s.ids[it] = id
		}
		if i > 0 && ids[i-1] >= id {
			ascending = false
		}
		ids = append(ids, id)
	}
	if !ascending {
		sort.Ints(ids)
	}
	b := s.keyBuf[:0]
	for _, id := range ids {
		b = append(b, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	s.idBuf, s.keyBuf = ids, b
	return b
}

// Test evaluates the metric on a set of items, memoized. The first visit
// of a set costs one execution, repeats are free, and a failing set —
// memoized, but a crashed attempt still counts as a program execution —
// costs one on every visit.
func (s *Searcher) Test(items []string) (float64, error) {
	key := s.key(items)
	o, ok := s.memo[string(key)]
	if !ok {
		v, err := s.fn(items)
		if err == nil && v < 0 {
			v, err = 0, fmt.Errorf("bisect: Test returned negative value %g for %v", v, items)
		}
		o = outcome{val: v, err: err}
		s.memo[string(key)] = o
	}
	if !ok || o.err != nil {
		s.execs++
	}
	return o.val, o.err
}

// All is procedure BisectAll of Algorithm 1: it finds every
// variability-inducing item, verifying the search assumptions dynamically.
// Findings are returned sorted by decreasing individual magnitude, the
// paper's "sorted by the most influential" ordering. The singleton values
// are free: BisectOne's base case already executed them.
func (s *Searcher) All(items []string) ([]Finding, error) {
	var found []Finding
	t := append([]string(nil), items...)
	for {
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
