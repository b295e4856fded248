package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples within a run: the median the
// benchmark reports, plus the spread a reader needs to judge it.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sorted(xs)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of the sorted
// sample s at position q·(n+1), the "exclusive" method of Python's
// statistics.quantiles (it clamps where Python would extrapolate, which only
// happens below three samples). It returns 0 for no samples.
func quantile(s []float64, q float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n == 1:
		return s[0]
	}
	pos := q * float64(n+1)
	switch {
	case pos <= 1:
		return s[0]
	case pos >= float64(n):
		return s[n-1]
	}
	i := int(math.Floor(pos))
	frac := pos - float64(i)
	return s[i-1] + frac*(s[i]-s[i-1])
}

// percentile returns the p-th percentile (0 < p < 100) of xs, and whether
// at least ten samples lie beyond it — the rule for which tail percentile a
// sample count supports. A p98 needs 500 samples, a p90 needs 100.
func percentile(xs []float64, p float64) (v float64, supported bool) {
	s := sorted(xs)
	beyond := float64(len(s)) * (100 - p) / 100
	return quantile(s, p/100), beyond >= 10
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, or 0 when there is nothing to divide by (a layer the
// workload never reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
