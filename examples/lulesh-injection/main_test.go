package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestLULESHInjectionSmoke replays the §3.5 injection study on the sampled
// site set: the three illustrative probes and the campaign summary.
func TestLULESHInjectionSmoke(t *testing.T) {
	var b strings.Builder
	if err := run(&b, experiments.NewEngine(0)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"enumerated",
		"inject * at CalcAccelerationForNodes",
		"sampled campaign (every 7th site):",
		"precision",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
