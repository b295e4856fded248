package flit

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
)

// matrixFingerprint renders every cell of a matrix run into a canonical
// string, including error text, so two Results can be compared exactly.
func matrixFingerprint(r *Results) string {
	out := ""
	for _, test := range r.TestNames() {
		for _, rr := range r.ForTest(test) {
			errs := ""
			if rr.Err != nil {
				errs = rr.Err.Error()
			}
			out += fmt.Sprintf("%s|%s|%.17g|%.17g|%.17g|%s\n",
				rr.Test, rr.Comp.Key(), rr.CompareVal, rr.RelativeErr, rr.Time, errs)
		}
	}
	return out
}

// TestRunMatrixParallelEquivalence: the matrix runner must produce
// bit-identical Results — same cells, same order, same values — at any
// worker count, with and without the build/run cache.
func TestRunMatrixParallelEquivalence(t *testing.T) {
	matrix := comp.Matrix()

	base := newSuite()
	seqRes, err := base.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(seqRes)

	for _, cfg := range []struct {
		name  string
		pool  *exec.Pool
		cache *Cache
	}{
		{"j8-cached", exec.New(8), NewCache()},
		{"j8-uncached", exec.New(8), nil},
		{"j1-cached", exec.New(1), NewCache()},
	} {
		s := newSuite()
		s.Pool, s.Cache = cfg.pool, cfg.cache
		res, err := s.RunMatrix(matrix)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if got := matrixFingerprint(res); got != want {
			t.Errorf("%s: matrix fingerprint differs from sequential run", cfg.name)
		}
	}
}

// TestCacheRunAllMemoizes: repeated (plan, test) evaluations through a
// Cache run once and return the identical result, and the runtime derived
// from the plan is the linked executable's cost.
func TestCacheRunAllMemoizes(t *testing.T) {
	s := newSuite()
	plan := link.FullBuildPlan(s.Prog, s.Baseline)
	cache := NewCache()
	first, err := cache.RunAllPlanned(s.Tests[0], link.NewBuilder(plan))
	if err != nil {
		t.Fatal(err)
	}
	again, err := cache.RunAllPlanned(s.Tests[0], link.NewBuilder(plan))
	if err != nil {
		t.Fatal(err)
	}
	if L2Diff(first, again) != 0 {
		t.Error("cached result differs from first run")
	}
	if m := cache.Metrics().Runs; m.Hits != 1 || m.Misses != 1 {
		t.Errorf("run metrics = %d hits / %d misses, want 1/1", m.Hits, m.Misses)
	}
	ex, err := link.Link(plan)
	if err != nil {
		t.Fatal(err)
	}
	got := newMatrixCosts(s.Prog, s.Tests).of(s.Baseline)[0]
	if want := ex.Cost("Kernel"); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("derived cost %g != %g", got, want)
	}
}

// TestTestKeyUnwrapsCompareOverrides: metric overrides share the underlying
// run identity; distinct cases keep distinct keys.
func TestTestKeyUnwrapsCompareOverrides(t *testing.T) {
	base := &dotTest{}
	if TestKey(base) != "DotTest" {
		t.Errorf("TestKey = %q", TestKey(base))
	}
	wrapped := WithCompare(base, DigitL2Diff(3))
	if TestKey(wrapped) != "DotTest" {
		t.Errorf("TestKey(wrapped) = %q, want DotTest", TestKey(wrapped))
	}
	double := WithCompare(wrapped, DigitL2Diff(5))
	if TestKey(double) != "DotTest" {
		t.Errorf("TestKey(double-wrapped) = %q, want DotTest", TestKey(double))
	}
}
