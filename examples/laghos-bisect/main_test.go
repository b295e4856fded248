package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestLaghosBisectSmoke replays the Laghos case study: the motivating
// incident, the NaN-bug re-discovery, Table 4, and the epsilon fix.
func TestLaghosBisectSmoke(t *testing.T) {
	var b strings.Builder
	if err := run(&b, experiments.NewEngine(0)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Motivating incident (paper §1):",
		"NaN bug re-discovery:",
		"Table 4 — Bisect statistics",
		"with the epsilon-comparison fix:",
		// The XOR-swap macro's visible neighbors.
		"TimeIntegrator",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
