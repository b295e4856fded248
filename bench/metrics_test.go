package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every metric the benchmark emits is declared in BENCHMARK.json, in the
// same order and with the same unit (and, end to end, the same bound).
func TestEmittedMetricsAreDeclared(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the benchmark emits %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range endToEnd {
		d := b.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Bound != m.Bound || d.Better != "lower" {
			t.Errorf("end-to-end metric %d: declared %+v, emitted %+v (lower is better)", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range perLayer {
		d := b.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %d: declared %+v, emitted %+v", i, d, m)
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is not a valid name", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if got := len(b.Workloads); got != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark runs %d", got, len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: declared %q, benchmark runs %q", i, w.Name, workloads[i])
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// The last line of a run carries exactly the declared metrics of its mode.
func TestResultCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rec := &record{Trace: traced, Attempted: 3, Metrics: map[string]recMetric{}}
		res := rec.result()
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		if len(res.Metrics) != len(specs) {
			t.Fatalf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), len(specs))
		}
		for _, s := range specs {
			if m, ok := res.Metrics[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %s", traced, s.Name, m, s.Unit)
			}
		}
		if !res.Correct {
			t.Errorf("trace=%v: a run with no failures is not correct", traced)
		}
	}
}
