package bisect

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// blameTest builds a synthetic Test function satisfying both search
// assumptions: each blamed item i contributes a distinct weight 2^-i, so
// every subset of the blame set has a unique positive magnitude
// (Assumption 1) and every blamed singleton tests positive (Assumption 2).
func blameTest(items []string, blamed map[string]float64) TestFn {
	return func(set []string) (float64, error) {
		var v float64
		for _, it := range set {
			v += blamed[it]
		}
		return v, nil
	}
}

func makeItems(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "item" + string(rune('A'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
	}
	return out
}

func pickBlame(items []string, k int, rng *rand.Rand) map[string]float64 {
	blamed := map[string]float64{}
	perm := rng.Perm(len(items))
	for i := 0; i < k; i++ {
		blamed[items[perm[i]]] = math.Pow(2, -float64(i+1))
	}
	return blamed
}

func TestAllFindsExactBlameSet(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		k := rng.Intn(min(n, 8) + 1)
		items := makeItems(n)
		blamed := pickBlame(items, k, rng)
		s := NewSearcher(blameTest(items, blamed))
		found, err := s.All(items)
		if err != nil {
			t.Fatalf("trial %d (n=%d k=%d): %v", trial, n, k, err)
		}
		if len(found) != k {
			t.Fatalf("trial %d: found %d items, want %d", trial, len(found), k)
		}
		for _, f := range found {
			if blamed[f.Item] == 0 {
				t.Fatalf("trial %d: false positive %s", trial, f.Item)
			}
			if f.Value != blamed[f.Item] {
				t.Fatalf("trial %d: value %g != weight %g", trial, f.Value, blamed[f.Item])
			}
		}
		// Sorted by decreasing magnitude.
		if !sort.SliceIsSorted(found, func(i, j int) bool { return found[i].Value > found[j].Value }) {
			t.Fatalf("trial %d: findings not sorted", trial)
		}
	}
}

func TestAllComplexityBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 16 + rng.Intn(200)
		k := 1 + rng.Intn(6)
		items := makeItems(n)
		blamed := pickBlame(items, k, rng)
		s := NewSearcher(blameTest(items, blamed))
		if _, err := s.All(items); err != nil {
			t.Fatal(err)
		}
		// O(k log N) with the verification overhead of ~1+k extra runs.
		logN := math.Log2(float64(n)) + 1
		bound := int(2*float64(k)*logN) + k + 8
		if s.Execs() > bound {
			t.Fatalf("n=%d k=%d: %d executions exceeds bound %d", n, k, s.Execs(), bound)
		}
	}
}

func TestAllEmptyBlame(t *testing.T) {
	items := makeItems(20)
	s := NewSearcher(blameTest(items, nil))
	found, err := s.All(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 0 {
		t.Fatalf("found %v for benign program", found)
	}
	// Test(all) plus the verification run Test(∅).
	if s.Execs() != 2 {
		t.Fatalf("benign search used %d executions, want 2", s.Execs())
	}
}

func TestAllSingleItem(t *testing.T) {
	items := []string{"only"}
	s := NewSearcher(blameTest(items, map[string]float64{"only": 0.5}))
	found, err := s.All(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0].Item != "only" {
		t.Fatalf("found = %v", found)
	}
}

func TestAllDetectsCoupledElements(t *testing.T) {
	// Two elements that only act jointly: Assumption 2 violated. The
	// base-case assertion must fire — never a silent wrong answer.
	items := makeItems(16)
	coupled := map[string]bool{items[3]: true, items[11]: true}
	fn := func(set []string) (float64, error) {
		cnt := 0
		for _, it := range set {
			if coupled[it] {
				cnt++
			}
		}
		if cnt >= 2 {
			return 1.0, nil
		}
		return 0, nil
	}
	s := NewSearcher(fn)
	_, err := s.All(items)
	var ae *AssumptionError
	if !errors.As(err, &ae) {
		t.Fatalf("coupled blame: err = %v, want AssumptionError", err)
	}
}

func TestAllDetectsUnattributableVariability(t *testing.T) {
	// Test is positive even for the empty set (link-step variability).
	fn := func(set []string) (float64, error) { return 0.25 + float64(len(set)), nil }
	s := NewSearcher(fn)
	_, err := s.All(makeItems(4))
	var ae *AssumptionError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want AssumptionError", err)
	}
}

func TestAllDetectsNonUniqueError(t *testing.T) {
	// Assumption 1 violated: removing a blamed element does not change the
	// Test value (two elements mask each other), so the verification
	// assertion Test(items)==Test(found) fails or a singleton won't
	// reproduce. Either way an AssumptionError must surface.
	items := makeItems(8)
	a, b := items[1], items[5]
	fn := func(set []string) (float64, error) {
		has := map[string]bool{}
		for _, it := range set {
			has[it] = true
		}
		switch {
		case has[a] && has[b]:
			return 0.75, nil // same magnitude as a alone: masks b
		case has[a]:
			return 0.75, nil
		case has[b]:
			return 0.5, nil
		}
		return 0, nil
	}
	s := NewSearcher(fn)
	found, err := s.All(items)
	if err == nil {
		// The search may still stumble into the right answer; if it claims
		// success both elements must be present.
		names := map[string]bool{}
		for _, f := range found {
			names[f.Item] = true
		}
		if !names[a] || !names[b] {
			t.Fatalf("silent wrong answer: %v", found)
		}
	}
}

func TestTestRejectsNegativeMetric(t *testing.T) {
	s := NewSearcher(func(set []string) (float64, error) { return -1, nil })
	if _, err := s.Test([]string{"x"}); err == nil {
		t.Fatal("negative metric accepted")
	}
}

func TestMemoization(t *testing.T) {
	calls := 0
	s := NewSearcher(func(set []string) (float64, error) { calls++; return 0, nil })
	for i := 0; i < 5; i++ {
		if _, err := s.Test([]string{"b", "a"}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Test([]string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 1 {
		t.Fatalf("underlying Test ran %d times, want 1 (memoized, order-independent)", calls)
	}
	if s.Execs() != 1 {
		t.Fatalf("Execs = %d, want 1", s.Execs())
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := errors.New("segfault")
	s := NewSearcher(func(set []string) (float64, error) {
		if len(set) <= 2 {
			return 0, boom
		}
		return 1, nil
	})
	_, err := s.All(makeItems(8))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped segfault", err)
	}
}

// TestFailingSetChargedEachVisit: a failing set runs once per search (the
// error is memoized) but, like a crashed program run, costs one execution
// on every committed visit.
func TestFailingSetChargedEachVisit(t *testing.T) {
	boom := errors.New("segfault")
	calls := 0
	s := NewSearcher(func(set []string) (float64, error) { calls++; return 0, boom })
	for visit := 1; visit <= 3; visit++ {
		if _, err := s.Test([]string{"a"}); !errors.Is(err, boom) {
			t.Fatalf("visit %d: err = %v, want segfault", visit, err)
		}
		if s.Execs() != visit {
			t.Fatalf("visit %d: Execs = %d, want %d", visit, s.Execs(), visit)
		}
	}
	if calls != 1 {
		t.Fatalf("failing set ran %d times, want 1 (memoized)", calls)
	}
}

func TestBiggestTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 8 + rng.Intn(120)
		kBlame := 1 + rng.Intn(7)
		items := makeItems(n)
		blamed := pickBlame(items, kBlame, rng)
		// True ranking: by weight descending.
		type bw struct {
			item string
			w    float64
		}
		var truth []bw
		for it, w := range blamed {
			truth = append(truth, bw{it, w})
		}
		sort.Slice(truth, func(i, j int) bool { return truth[i].w > truth[j].w })

		k := 1 + rng.Intn(3)
		s := NewSearcher(blameTest(items, blamed))
		found, err := s.Biggest(items, k)
		if err != nil {
			t.Fatal(err)
		}
		wantLen := min(k, kBlame)
		if len(found) != wantLen {
			t.Fatalf("trial %d: Biggest(%d) returned %d findings, want %d",
				trial, k, len(found), wantLen)
		}
		for i, f := range found {
			if f.Item != truth[i].item {
				t.Fatalf("trial %d: rank %d is %s (%g), want %s (%g)",
					trial, i, f.Item, f.Value, truth[i].item, truth[i].w)
			}
		}
	}
}

func TestBiggestAllEquivalentCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := makeItems(64)
	blamed := pickBlame(items, 5, rng)
	s := NewSearcher(blameTest(items, blamed))
	found, err := s.Biggest(items, 0) // k<=0 means all
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 5 {
		t.Fatalf("Biggest(all) found %d, want 5", len(found))
	}
}

func TestBiggestEarlyExitSavesExecutions(t *testing.T) {
	items := makeItems(256)
	rng := rand.New(rand.NewSource(3))
	blamed := pickBlame(items, 8, rng)
	sAll := NewSearcher(blameTest(items, blamed))
	if _, err := sAll.All(items); err != nil {
		t.Fatal(err)
	}
	sTop := NewSearcher(blameTest(items, blamed))
	if _, err := sTop.Biggest(items, 1); err != nil {
		t.Fatal(err)
	}
	if sTop.Execs() >= sAll.Execs() {
		t.Fatalf("Biggest(1) used %d executions, All used %d — no early-exit benefit",
			sTop.Execs(), sAll.Execs())
	}
}

func TestBiggestEmptyAndBenign(t *testing.T) {
	s := NewSearcher(blameTest(nil, nil))
	found, err := s.Biggest(nil, 3)
	if err != nil || found != nil {
		t.Fatalf("empty items: %v %v", found, err)
	}
	items := makeItems(10)
	s2 := NewSearcher(blameTest(items, nil))
	found2, err := s2.Biggest(items, 3)
	if err != nil || len(found2) != 0 {
		t.Fatalf("benign items: %v %v", found2, err)
	}
}

func TestAssumptionErrorMessage(t *testing.T) {
	e := &AssumptionError{Msg: "boom"}
	if e.Error() == "" {
		t.Fatal("empty message")
	}
	e2 := &AssumptionError{Msg: "boom", Items: []string{"x"}}
	if e2.Error() == e.Error() {
		t.Fatal("items not included in message")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
