package bisect

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
)

// Parallel-vs-sequential equivalence: searches fanned out through a pool —
// the way Search.Run runs its per-file symbol searches and the Tables 2/4
// drivers run whole searches — must produce the identical findings AND the
// identical paper execution count as the same searches run one at a time.
// Run under -race (scripts/ci.sh), these tests also prove that concurrent
// searches share no state.

func equalFindings(t *testing.T, ctx string, seq, par []Finding) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: %d findings (seq) != %d (par)", ctx, len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("%s: finding %d: %+v (seq) != %+v (par)", ctx, i, seq[i], par[i])
		}
	}
}

// searchOut is one search's outcome: its findings, its error and the
// Searcher's Execs() when it returned.
type searchOut struct {
	found []Finding
	err   error
	execs int
}

// runSearches runs search(i) on a fresh Searcher over fns[i] for every i,
// through a pool of j workers.
func runSearches(j int, fns []TestFn, search func(i int, s *Searcher) ([]Finding, error)) []searchOut {
	outs, _ := exec.Map(exec.New(j), len(fns), func(i int) (searchOut, error) {
		s := NewSearcher(fns[i])
		found, err := search(i, s)
		return searchOut{found: found, err: err, execs: s.Execs()}, nil
	})
	return outs
}

func TestParallelAllEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const trials = 60
	items := make([][]string, trials)
	fns := make([]TestFn, trials)
	for trial := range fns {
		n := 1 + rng.Intn(200)
		k := rng.Intn(min(n, 8) + 1)
		items[trial] = makeItems(n)
		fns[trial] = blameTest(items[trial], pickBlame(items[trial], k, rng))
	}
	all := func(i int, s *Searcher) ([]Finding, error) { return s.All(items[i]) }
	seq := runSearches(1, fns, all)
	for _, j := range []int{2, 8} {
		par := runSearches(j, fns, all)
		for trial := range fns {
			s, p := seq[trial], par[trial]
			if (s.err == nil) != (p.err == nil) {
				t.Fatalf("j=%d trial %d: err %v (seq) vs %v (par)", j, trial, s.err, p.err)
			}
			equalFindings(t, "All", s.found, p.found)
			if s.execs != p.execs {
				t.Fatalf("j=%d trial %d (n=%d): paper execs %d (seq) != %d (par)",
					j, trial, len(items[trial]), s.execs, p.execs)
			}
		}
	}
}

func TestParallelBiggestEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const trials = 60
	ks := []int{1, 2, 3, 0}
	items := make([][]string, trials)
	fns := make([]TestFn, trials*len(ks))
	for trial := range items {
		n := 2 + rng.Intn(160)
		kBlame := 1 + rng.Intn(6)
		items[trial] = makeItems(n)
		fn := blameTest(items[trial], pickBlame(items[trial], kBlame, rng))
		for x := range ks {
			fns[trial*len(ks)+x] = fn
		}
	}
	biggest := func(i int, s *Searcher) ([]Finding, error) {
		return s.Biggest(items[i/len(ks)], ks[i%len(ks)])
	}
	seq := runSearches(1, fns, biggest)
	par := runSearches(8, fns, biggest)
	for i := range fns {
		trial, k := i/len(ks), ks[i%len(ks)]
		if seq[i].err != nil || par[i].err != nil {
			t.Fatalf("trial %d k=%d: err %v (seq) vs %v (par)", trial, k, seq[i].err, par[i].err)
		}
		equalFindings(t, "Biggest", seq[i].found, par[i].found)
		if seq[i].execs != par[i].execs {
			t.Fatalf("trial %d k=%d: paper execs %d (seq) != %d (par)",
				trial, k, seq[i].execs, par[i].execs)
		}
	}
}

// TestParallelErrorEquivalence: a deterministic Test error must abort each
// of several concurrent searches exactly where it aborts a lone one — same
// error identity, same paper count (an error is memoized within the search,
// yet charged on every visit: every crashed attempt counts).
func TestParallelErrorEquivalence(t *testing.T) {
	boom := errors.New("segfault")
	items := makeItems(32)
	fn := func(set []string) (float64, error) {
		if len(set) <= 2 {
			return 0, boom
		}
		return 1, nil
	}
	all := func(_ int, s *Searcher) ([]Finding, error) { return s.All(items) }
	seq := runSearches(1, []TestFn{fn}, all)[0]
	for _, par := range runSearches(8, []TestFn{fn, fn, fn, fn, fn, fn, fn, fn}, all) {
		if !errors.Is(seq.err, boom) || !errors.Is(par.err, boom) {
			t.Fatalf("errors differ: %v (seq) vs %v (par)", seq.err, par.err)
		}
		if seq.execs != par.execs {
			t.Fatalf("paper execs at abort: %d (seq) != %d (par)", seq.execs, par.execs)
		}
	}
}

// TestDriverParallelEquivalence runs the full hierarchical search with a
// pool of 8 against the sequential driver for every variable compilation
// of the driver program: identical Reports (files, symbols, statuses, the
// paper's Execs) are required.
func TestDriverParallelEquivalence(t *testing.T) {
	p := driverProgram()
	vars := variableCompilations(t, p)
	for _, vc := range vars {
		seqSearch := &Search{Prog: p, Test: driverTest{}, Baseline: comp.Baseline(), Variable: vc}
		seqReport, seqErr := seqSearch.Run()
		parSearch := &Search{Prog: p, Test: driverTest{}, Baseline: comp.Baseline(),
			Variable: vc, Pool: exec.New(8)}
		parReport, parErr := parSearch.Run()
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("%s: err %v (seq) vs %v (par)", vc, seqErr, parErr)
		}
		if seqReport.Execs != parReport.Execs {
			t.Errorf("%s: paper execs %d (seq) != %d (par)", vc, seqReport.Execs, parReport.Execs)
		}
		if seqReport.SpecExecs != 0 || parReport.SpecExecs != 0 {
			t.Errorf("%s: SpecExecs %d (seq) / %d (par), want 0", vc, seqReport.SpecExecs, parReport.SpecExecs)
		}
		if len(seqReport.Files) != len(parReport.Files) {
			t.Fatalf("%s: %d files (seq) != %d (par)", vc, len(seqReport.Files), len(parReport.Files))
		}
		for i := range seqReport.Files {
			sf, pf := seqReport.Files[i], parReport.Files[i]
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
	s := NewSearcher(func([]string) (float64, error) { return 0, nil })
	key := func(items ...string) string { return string(s.key(items)) } // key reuses its buffer
	k1 := key("b", "a", "c")
	k2 := key("c", "b", "a")
	k3 := key("a", "b", "c")
	if k1 != k2 || k2 != k3 {
		t.Fatalf("permutations keyed differently: %q %q %q", k1, k2, k3)
	}
	if key("a", "b") == k1 {
		t.Fatal("subset collides with superset")
	}
	if key("a", "a") == key("a") {
		t.Fatal("duplicate items collide with the singleton")
	}
}

// BenchmarkSearcher measures a Searcher's own overhead — memo keys, memo
// lookups and the halving bookkeeping — over a Test function that costs
// next to nothing, so the search itself is what is timed.
func BenchmarkSearcher(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	items := makeItems(96)
	fn := blameTest(items, pickBlame(items, 3, rng))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSearcher(fn).All(items); err != nil {
			b.Fatal(err)
		}
	}
}
