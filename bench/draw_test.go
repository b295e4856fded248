package main

import (
	"reflect"
	"testing"

	"repro/internal/apps/lulesh"
	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/inject"
)

// fakeVariable is a stand-in for the matrix's variable cells: 100 per
// compiler, each with a distinct test name.
func fakeVariable() []flit.RunResult {
	var out []flit.RunResult
	for _, c := range []string{comp.GCC, comp.Clang, comp.ICPC} {
		for i := 0; i < 100; i++ {
			out = append(out, flit.RunResult{Test: c + string(rune('A'+i%26)) + string(rune('a'+i/26)),
				Comp: comp.Compilation{Compiler: c, OptLevel: "-O2"}})
		}
	}
	return out
}

func TestDrawsAreDeterministicPerSeedAndDifferAcrossSeeds(t *testing.T) {
	variable := fakeVariable()
	sites := inject.EnumerateSites(lulesh.Program())
	draws := []struct {
		name string
		draw func(seed int64) any
	}{
		{"sweep pairs", func(s int64) any { return drawSweepPairs(s, variable) }},
		{"sites", func(s int64) any { return drawSites(s, sites) }},
		{"search pairs", func(s int64) any { return drawSearchPairs(s, variable, 50) }},
		{"campaigns", func(s int64) any { return drawCampaigns(s, coordCommands, coordShards, coordShardsMin, coordShardsMax) }},
	}
	for _, d := range draws {
		if a, b := d.draw(7), d.draw(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew two different inputs", d.name)
		}
		if a, b := d.draw(7), d.draw(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 drew the same inputs", d.name)
		}
	}
}

func TestDrawShapes(t *testing.T) {
	variable := fakeVariable()
	pairs := drawSweepPairs(3, variable)
	per := map[string]int{}
	for _, p := range pairs {
		per[p.Comp.Compiler]++
	}
	for _, c := range []string{comp.GCC, comp.Clang, comp.ICPC} {
		if per[c] != sweepSearchesPerCompiler {
			t.Errorf("%s: %d sweep pairs, want %d", c, per[c], sweepSearchesPerCompiler)
		}
	}
	all := inject.EnumerateSites(lulesh.Program())
	if got, want := len(drawSites(3, all)), (len(all)+sweepSiteStride-1)/sweepSiteStride; got != want {
		t.Errorf("drew %d sites, want %d (a stride-%d sample)", got, want, sweepSiteStride)
	}
	seen := map[string]bool{}
	for _, p := range drawSearchPairs(3, variable, 50) {
		if seen[p.Test] {
			t.Fatalf("search pair %s drawn twice", p.Test)
		}
		seen[p.Test] = true
	}
	for seed := int64(1); seed <= 50; seed++ {
		cds := drawCampaigns(seed, coordCommands, coordShards, coordShardsMin, coordShardsMax)
		total := 0
		cmds := map[string]bool{}
		for _, cd := range cds {
			if cd.Shards < coordShardsMin || cd.Shards > coordShardsMax {
				t.Fatalf("seed %d: %d shards outside [%d, %d]", seed, cd.Shards, coordShardsMin, coordShardsMax)
			}
			total += cd.Shards
			cmds[cd.Command[1]] = true
		}
		if total != coordShards || len(cmds) != len(coordCommands) {
			t.Fatalf("seed %d: %d shards over %d commands, want %d over %d", seed, total, len(cmds), coordShards, len(coordCommands))
		}
	}
}
