package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// A tiny tenancy: two campaigns of two shards each.
var tinyCampaigns = []campaignDraw{
	{Command: []string{"experiments", "table3"}, Shards: 2},
	{Command: []string{"experiments", "laghos-nan"}, Shards: 2},
}

func tinyReference(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	for _, cd := range tinyCampaigns {
		var buf bytes.Buffer
		if err := experiments.RunCommand(experiments.NewEngine(1), cd.Command, &buf); err != nil {
			t.Fatal(err)
		}
		want[strings.Join(cd.Command, " ")] = buf.String()
	}
	return want
}

// tinyGeneration drains and merges one generation of the tiny tenancy
// inside a cold pass.
func tinyGeneration(t *testing.T, r *runner, want map[string]string) {
	t.Helper()
	ten, err := r.openTenancy()
	if err != nil {
		t.Fatal(err)
	}
	defer ten.close()
	ids, err := r.submit(ten, tinyCampaigns, open{})
	if err != nil {
		t.Fatal(err)
	}
	err = r.timePass("cold", 0, func(sp open) error {
		_, err := r.generation(ten, tinyCampaigns, ids, want, sp)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTinyCoordPassesTheCorrectnessGate(t *testing.T) {
	want := tinyReference(t)
	for _, traced := range []bool{false, true} {
		r := newRunner(config{Workload: "coord", Seed: 1, Seconds: 1, Trace: traced, Work: t.TempDir()})
		tinyGeneration(t, r, want)
		// 4 shard completions and 2 merges.
		if r.attempted != 6 || r.failed != 0 || exitCode(r) != 0 {
			t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, r.failed, r.attempted, r.failures)
		}
		if !traced {
			continue
		}
		rec := r.record()
		for _, name := range []string{"coord.lease_calls", "coord.complete_calls", "coord.object_put_calls", "store.put_calls", "http.requests"} {
			if rec.Metrics[name].Value <= 0 {
				t.Errorf("traced tiny run reports %s = %v", name, rec.Metrics[name].Value)
			}
		}
		if got := rec.Metrics["coord.complete_calls"].Value; got != 4 {
			t.Errorf("coord.complete_calls = %v, want 4", got)
		}
	}
}

func TestTinyCoordFailsAgainstATamperedReference(t *testing.T) {
	want := tinyReference(t)
	for k, v := range want {
		want[k] = strings.Replace(v, "e", "E", 1)
	}
	r := newRunner(config{Workload: "coord", Seed: 1, Seconds: 1, Work: t.TempDir()})
	tinyGeneration(t, r, want)
	if r.attempted != 6 || r.failed != r.attempted {
		t.Fatalf("tampered reference: %d of %d operations failed, want all", r.failed, r.attempted)
	}
	if rate := r.record().ErrorRate; rate != 1 {
		t.Errorf("error_rate = %v, want 1", rate)
	}
	if exitCode(r) == 0 {
		t.Error("a run with failed operations exits 0")
	}
}
