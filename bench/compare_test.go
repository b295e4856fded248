package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// runs makes one untraced record per value of metric on workload w.
func runs(w, metric string, vals ...float64) []*record {
	out := make([]*record, len(vals))
	for i, v := range vals {
		out[i] = &record{Workload: w, Seed: int64(i + 1), NProc: 2, GoMaxProcs: 2, OS: "linux", Arch: "amd64",
			Metrics: map[string]recMetric{metric: {Value: v}}}
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	cold := metricSpec{Name: "cold_s", Unit: "s", Bound: 0.10}
	for _, tc := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"clear gain", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{8, 8.1, 7.9, 8, 8.05}, verdictImproved},
		{"noise", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{10.02, 9.95, 10.1, 10, 9.98}, verdictWithin},
		{"regression", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{11.5, 11.6, 11.4, 11.5, 11.55}, verdictWorse},
		{"too noisy to tell", []float64{10, 14, 7, 12, 9}, []float64{11, 15, 8, 13, 10}, verdictUnresolved},
		// Noise does not excuse a median beyond the bound.
		{"noisy regression", []float64{10, 14, 7, 12, 9}, []float64{13, 18, 9, 16, 12}, verdictWorse},
		// Spread wider than the bound, but every head run beats every base
		// run: resolved. The medians differ by less than the base's own
		// spread, so it is no proven gain either.
		{"noisy but all better", []float64{10, 12, 11, 13, 12.5}, []float64{9.9, 9.95, 9.8, 9.85, 9.9}, verdictWithin},
	} {
		row := judge("sweep", cold, runs("sweep", "cold_s", tc.base...), runs("sweep", "cold_s", tc.head...))
		if row.Verdict != tc.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", tc.name, row.Verdict, tc.want, row)
		}
	}
}

func TestExecsPerSearchMustBeExact(t *testing.T) {
	m := metricSpec{Name: "execs_per_search", Unit: "count", Bound: 0.1}
	same := judge("bisect", m, runs("bisect", m.Name, 9.2, 9.4), runs("bisect", m.Name, 9.2, 9.4))
	if same.Verdict != verdictExact {
		t.Errorf("identical counts judged %q", same.Verdict)
	}
	moved := judge("bisect", m, runs("bisect", m.Name, 9.2, 9.4), runs("bisect", m.Name, 9.2, 9.402))
	if moved.Verdict != verdictChanged {
		t.Errorf("a changed count judged %q", moved.Verdict)
	}
}

func TestCompareRefusesMixedHostShapes(t *testing.T) {
	base := runs("sweep", "cold_s", 1, 1, 1)
	head := runs("sweep", "cold_s", 1, 1, 1)
	head[1].NProc = 8
	if _, err := compareRecords(base, head); err == nil || !strings.Contains(err.Error(), "host shapes") {
		t.Fatalf("mixed host shapes: err = %v", err)
	}
}

func TestCompareMainRowsAndExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []*record) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			for _, m := range endToEnd {
				if _, ok := r.Metrics[m.Name]; !ok {
					r.Metrics[m.Name] = recMetric{Value: 1}
				}
			}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", append(runs("sweep", "cold_s", 10, 10, 10), runs("coord", "cold_s", 5, 5, 5)...))
	head := write("head.jsonl", append(runs("sweep", "cold_s", 10, 10, 10), runs("coord", "cold_s", 7, 7, 7)...))
	var out, errs bytes.Buffer
	if code := compareMain([]string{"-base", base, "-head", head}, &out, &errs); code != 1 {
		t.Fatalf("a 40%% regression exited %d, want 1\n%s%s", code, out.String(), errs.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := 1 + 2*len(endToEnd); len(rows) != want {
		t.Fatalf("%d lines, want a header and one row per workload and metric (%d)", len(rows), want)
	}
	if !strings.Contains(out.String(), "coord    cold_s") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("the coord regression is not reported:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-base", base, "-head", base}, &out, &errs); code != 0 {
		t.Errorf("comparing a set with itself exited %d\n%s", code, out.String())
	}
}
