package bisect

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comp"
	"repro/internal/exec"
)

// Speculative-vs-sequential equivalence: a speculating Searcher must
// produce the identical findings AND the identical paper execution count
// as the sequential one at every parallelism — speculation buys wall-clock
// only. Run under -race (scripts/ci.sh), these tests also prove the
// background evaluation engine is data-race-free.

func equalFindings(t *testing.T, ctx string, seq, spec []Finding) {
	t.Helper()
	if len(seq) != len(spec) {
		t.Fatalf("%s: %d findings (seq) != %d (spec)", ctx, len(seq), len(spec))
	}
	for i := range seq {
		if seq[i] != spec[i] {
			t.Fatalf("%s: finding %d: %+v (seq) != %+v (spec)", ctx, i, seq[i], spec[i])
		}
	}
}

func TestSpeculativeAllEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, j := range []int{2, 8} {
		sub := exec.New(j).Submitter()
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(200)
			k := rng.Intn(min(n, 8) + 1)
			items := makeItems(n)
			blamed := pickBlame(items, k, rng)
			fn := blameTest(items, blamed)

			seq := NewSearcher(fn, nil)
			seqFound, seqErr := seq.All(items)
			spec := NewSearcher(fn, sub)
			specFound, specErr := spec.All(items)

			if (seqErr == nil) != (specErr == nil) {
				t.Fatalf("j=%d trial %d: err %v (seq) vs %v (spec)", j, trial, seqErr, specErr)
			}
			equalFindings(t, "All", seqFound, specFound)
			if seq.Execs() != spec.Execs() {
				t.Fatalf("j=%d trial %d (n=%d k=%d): paper execs %d (seq) != %d (spec)",
					j, trial, n, k, seq.Execs(), spec.Execs())
			}
			if seq.SpecExecs() != 0 {
				t.Fatalf("sequential searcher reports %d speculative execs", seq.SpecExecs())
			}
		}
	}
}

func TestSpeculativeBiggestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sub := exec.New(8).Submitter()
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(160)
		kBlame := 1 + rng.Intn(6)
		items := makeItems(n)
		blamed := pickBlame(items, kBlame, rng)
		fn := blameTest(items, blamed)
		for _, k := range []int{1, 2, 3, 0} {
			seq := NewSearcher(fn, nil)
			seqFound, err := seq.Biggest(items, k)
			if err != nil {
				t.Fatal(err)
			}
			spec := NewSearcher(fn, sub)
			specFound, err := spec.Biggest(items, k)
			if err != nil {
				t.Fatal(err)
			}
			equalFindings(t, "Biggest", seqFound, specFound)
			if seq.Execs() != spec.Execs() {
				t.Fatalf("trial %d k=%d: paper execs %d (seq) != %d (spec)",
					trial, k, seq.Execs(), spec.Execs())
			}
		}
	}
}

// TestSpeculativeErrorEquivalence: a deterministic Test error must abort
// the speculative search exactly where it aborts the sequential one — same
// error identity, same paper count — even though background probes may
// have hit the error first (an error is memoized within the search, yet
// charged on every committed visit, matching the sequential "every crashed
// attempt counts" accounting).
func TestSpeculativeErrorEquivalence(t *testing.T) {
	boom := errors.New("segfault")
	items := makeItems(32)
	fn := func(set []string) (float64, error) {
		if len(set) <= 2 {
			return 0, boom
		}
		return 1, nil
	}
	seq := NewSearcher(fn, nil)
	_, seqErr := seq.All(items)
	spec := NewSearcher(fn, exec.New(8).Submitter())
	_, specErr := spec.All(items)
	if !errors.Is(seqErr, boom) || !errors.Is(specErr, boom) {
		t.Fatalf("errors differ: %v (seq) vs %v (spec)", seqErr, specErr)
	}
	if seq.Execs() != spec.Execs() {
		t.Fatalf("paper execs at abort: %d (seq) != %d (spec)", seq.Execs(), spec.Execs())
	}
}

// TestSpeculativeSearcherNilSubmitter: a submitter with no capacity
// degrades to the nil-submitter sequential Searcher, byte for byte and
// count for count.
func TestSpeculativeSearcherNilSubmitter(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	items := makeItems(64)
	blamed := pickBlame(items, 4, rng)
	fn := blameTest(items, blamed)
	a := NewSearcher(fn, nil)
	b := NewSearcher(fn, &exec.Submitter{})
	fa, err := a.All(items)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.All(items)
	if err != nil {
		t.Fatal(err)
	}
	equalFindings(t, "zero-capacity submitter", fa, fb)
	if a.Execs() != b.Execs() || b.SpecExecs() != 0 {
		t.Fatalf("execs %d/%d spec %d", a.Execs(), b.Execs(), b.SpecExecs())
	}
}

// TestSpeculationPerformsExtraWork: with slow evaluations and real blame,
// the speculative engine does run background probes (SpecExecs > 0) and
// still reports the sequential answer. This pins down that speculation is
// actually engaged — equivalence alone would also pass if it were inert.
func TestSpeculationPerformsExtraWork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	items := makeItems(128)
	blamed := pickBlame(items, 4, rng)
	inner := blameTest(items, blamed)
	fn := func(set []string) (float64, error) {
		time.Sleep(200 * time.Microsecond) // let background probes overlap
		return inner(set)
	}
	s := NewSearcher(fn, exec.New(8).Submitter())
	found, err := s.All(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 4 {
		t.Fatalf("found %d items, want 4", len(found))
	}
	if s.SpecExecs() == 0 {
		t.Fatal("speculation never ran a background probe")
	}
	ref := NewSearcher(inner, nil)
	if _, err := ref.All(items); err != nil {
		t.Fatal(err)
	}
	if s.Execs() != ref.Execs() {
		t.Fatalf("paper execs %d != sequential %d", s.Execs(), ref.Execs())
	}
}

// TestSpeculationRunsEachSetOnce: committed and speculative probes share
// one memo, so with slow evaluations racing at j=8 no item set reaches the
// TestFn twice within one Searcher, whichever path asked for it first.
func TestSpeculationRunsEachSetOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sub := exec.New(8).Submitter()
	for trial := 0; trial < 6; trial++ {
		items := makeItems(24 + rng.Intn(80))
		inner := blameTest(items, pickBlame(items, 1+rng.Intn(4), rng))
		var mu sync.Mutex
		runs := map[string]int{}
		fn := func(set []string) (float64, error) {
			k := append([]string(nil), set...)
			sort.Strings(k)
			mu.Lock()
			runs[strings.Join(k, ",")]++
			mu.Unlock()
			time.Sleep(100 * time.Microsecond) // let probes of one set collide
			return inner(set)
		}
		s := NewSearcher(fn, sub)
		if _, err := s.All(items); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Biggest(items, 2); err != nil {
			t.Fatal(err)
		}
		for set, n := range runs {
			if n > 1 {
				t.Fatalf("trial %d: set {%s} reached TestFn %d times", trial, set, n)
			}
		}
	}
}

// TestNoEvaluationOutlivesSearch: when All or Biggest returns, no TestFn
// call is still running and none starts afterwards — queued speculation is
// dropped, started speculation is waited out. The sets the committed trace
// never visits (learnt from a sequential run) are made slow, so started
// losers would outlast the search if it did not wait for them.
func TestNoEvaluationOutlivesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	items := makeItems(96)
	inner := blameTest(items, pickBlame(items, 3, rng))
	setKey := func(set []string) string {
		k := append([]string(nil), set...)
		sort.Strings(k)
		return strings.Join(k, ",")
	}
	for _, search := range []func(*Searcher) error{
		func(s *Searcher) error { _, err := s.All(items); return err },
		func(s *Searcher) error { _, err := s.Biggest(items, 1); return err },
	} {
		committed := map[string]bool{}
		if err := search(NewSearcher(func(set []string) (float64, error) {
			committed[setKey(set)] = true
			return inner(set)
		}, nil)); err != nil {
			t.Fatal(err)
		}
		var running, calls atomic.Int64
		fn := func(set []string) (float64, error) {
			running.Add(1)
			defer running.Add(-1)
			calls.Add(1)
			if committed[setKey(set)] {
				time.Sleep(200 * time.Microsecond)
			} else {
				time.Sleep(20 * time.Millisecond)
			}
			return inner(set)
		}
		s := NewSearcher(fn, exec.New(8).Submitter())
		if err := search(s); err != nil {
			t.Fatal(err)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("%d TestFn calls still running after the search returned", n)
		}
		after := calls.Load()
		time.Sleep(30 * time.Millisecond)
		if n := calls.Load(); n != after {
			t.Fatalf("%d TestFn calls started after the search returned", n-after)
		}
		if s.SpecExecs() == 0 {
			t.Fatal("no speculative probe ran: the test exercised nothing")
		}
	}
}

// TestDriverSpeculativeEquivalence runs the full hierarchical search with
// a speculating pool against the sequential driver for every variable
// compilation of the driver program: identical Reports (files, symbols,
// statuses, the paper's Execs) are required; only SpecExecs may differ.
func TestDriverSpeculativeEquivalence(t *testing.T) {
	p := driverProgram()
	vars := variableCompilations(t, p)
	for _, vc := range vars {
		seqSearch := &Search{Prog: p, Test: driverTest{}, Baseline: comp.Baseline(), Variable: vc}
		seqReport, seqErr := seqSearch.Run()
		specSearch := &Search{Prog: p, Test: driverTest{}, Baseline: comp.Baseline(),
			Variable: vc, Pool: exec.New(8)}
		specReport, specErr := specSearch.Run()
		if (seqErr == nil) != (specErr == nil) {
			t.Fatalf("%s: err %v (seq) vs %v (spec)", vc, seqErr, specErr)
		}
		if seqReport.Execs != specReport.Execs {
			t.Errorf("%s: paper execs %d (seq) != %d (spec)", vc, seqReport.Execs, specReport.Execs)
		}
		if seqReport.SpecExecs != 0 {
			t.Errorf("%s: sequential driver reports %d speculative execs", vc, seqReport.SpecExecs)
		}
		if len(seqReport.Files) != len(specReport.Files) {
			t.Fatalf("%s: %d files (seq) != %d (spec)", vc, len(seqReport.Files), len(specReport.Files))
		}
		for i := range seqReport.Files {
			sf, pf := seqReport.Files[i], specReport.Files[i]
			if sf.File != pf.File || sf.Value != pf.Value || sf.Status != pf.Status {
				t.Errorf("%s file %d: (%s %g %v) != (%s %g %v)",
					vc, i, sf.File, sf.Value, sf.Status, pf.File, pf.Value, pf.Status)
			}
			if len(sf.Symbols) != len(pf.Symbols) {
				t.Fatalf("%s %s: %d symbols != %d", vc, sf.File, len(sf.Symbols), len(pf.Symbols))
			}
			for j := range sf.Symbols {
				if sf.Symbols[j] != pf.Symbols[j] {
					t.Errorf("%s %s symbol %d: %v != %v", vc, sf.File, j, sf.Symbols[j], pf.Symbols[j])
				}
			}
		}
	}
}

// TestKeyCanonicalAcrossOrders: the id-based memo keys must stay
// order-independent (the memoization contract canonical() provided) while
// building in O(n) for the order-preserving subsets the search generates.
func TestKeyCanonicalAcrossOrders(t *testing.T) {
	s := NewSearcher(func([]string) (float64, error) { return 0, nil }, nil)
	k1 := s.key([]string{"b", "a", "c"})
	k2 := s.key([]string{"c", "b", "a"})
	k3 := s.key([]string{"a", "b", "c"})
	if k1 != k2 || k2 != k3 {
		t.Fatalf("permutations keyed differently: %q %q %q", k1, k2, k3)
	}
	if s.key([]string{"a", "b"}) == k1 {
		t.Fatal("subset collides with superset")
	}
	if s.key([]string{"a", "a"}) == s.key([]string{"a"}) {
		t.Fatal("duplicate items collide with the singleton")
	}
}

// BenchmarkSpeculativeSearcher measures the latency win on a Test function
// dominated by waiting (as real program executions are): the speculative
// engine overlaps the sequential halving chain's probes, so even a
// single-CPU host shows the effect.
func BenchmarkSpeculativeSearcher(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	items := makeItems(96)
	blamed := pickBlame(items, 3, rng)
	inner := blameTest(items, blamed)
	fn := func(set []string) (float64, error) {
		time.Sleep(100 * time.Microsecond)
		return inner(set)
	}
	run := func(b *testing.B, mk func() *Searcher) {
		for i := 0; i < b.N; i++ {
			s := mk()
			if _, err := s.All(items); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) {
		run(b, func() *Searcher { return NewSearcher(fn, nil) })
	})
	b.Run("speculative-j8", func(b *testing.B) {
		run(b, func() *Searcher { return NewSearcher(fn, exec.New(8).Submitter()) })
	})
}
