package main

import (
	"math"
	"testing"
)

// The quartiles the acceptance spreads use come from Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuantileMatchesPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 7.75}, [3]float64{2.375, 4, 8.375}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		s := summarize(tc.xs)
		got := [3]float64{s.Q1, s.Median, s.Q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles of %v = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestSummaryOfNothingIsZero(t *testing.T) {
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v", s)
	}
	if v, ok := percentile(nil, 50); v != 0 || ok {
		t.Errorf("percentile(nil) = %v, %v", v, ok)
	}
}

func TestPercentileTenBeyondRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{500, 98, true},
		{499, 98, false},
		{100, 90, true},
		{99, 90, false},
		{1000, 99, true},
		{20, 50, true},
		{19, 50, false},
	} {
		if _, ok := percentile(ramp(tc.n), tc.p); ok != tc.want {
			t.Errorf("p%v of %d samples: supported = %v, want %v", tc.p, tc.n, ok, tc.want)
		}
	}
	if v, _ := percentile(ramp(100), 90); math.Abs(v-90.9) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.9", v)
	}
}
