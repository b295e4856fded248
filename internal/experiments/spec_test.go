package experiments

import (
	"reflect"
	"testing"

	"repro/internal/apps/laghos"
	"repro/internal/bisect"
	"repro/internal/comp"
	"repro/internal/flit"
)

// TestLaghosSpeculativeBisectEquivalence pins the speculative engine to
// the paper's Laghos case study: the NaN-bug rediscovery (full BisectAll
// through the pooled driver) and the digit-limited k=1 search behind
// Table 4's headline must return identical findings and identical paper
// execution counts at every -j. Run under -race by scripts/ci.sh.
func TestLaghosSpeculativeBisectEquivalence(t *testing.T) {
	type digest struct {
		files   []string
		symbols []string
		execs   int
	}
	nanDigest := func(e *Engine) digest {
		res, err := e.RunNaNBug()
		if err != nil {
			t.Fatal(err)
		}
		if e.Pool().Workers() == 1 && res.SpecExecs != 0 {
			t.Errorf("j=1 NaN-bug search performed %d speculative execs", res.SpecExecs)
		}
		return digest{files: res.Files, symbols: res.Symbols, execs: res.Execs}
	}
	k1Digest := func(e *Engine) digest {
		s := &bisect.Search{
			Prog:     laghos.Program(),
			Test:     flit.WithCompare(laghos.NewCase(), flit.DigitL2Diff(3)),
			Baseline: comp.Compilation{Compiler: comp.XLC, OptLevel: "-O2"},
			Variable: comp.Compilation{Compiler: comp.XLC, OptLevel: "-O3"},
			K:        1,
			Pool:     e.Pool(),
			Cache:    e.Cache(),
		}
		report, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		d := digest{execs: report.Execs}
		for _, ff := range report.Files {
			d.files = append(d.files, ff.File)
			for _, sf := range ff.Symbols {
				d.symbols = append(d.symbols, sf.Item)
			}
		}
		if e.Pool().Workers() == 1 && report.SpecExecs != 0 {
			t.Errorf("j=1 search performed %d speculative execs", report.SpecExecs)
		}
		return d
	}

	var wantNaN, wantK1 digest
	for i, j := range []int{1, 2, 8} {
		eng := NewEngine(j)
		gotNaN := nanDigest(eng)
		gotK1 := k1Digest(eng)
		if i == 0 {
			wantNaN, wantK1 = gotNaN, gotK1
			continue
		}
		if !reflect.DeepEqual(gotNaN, wantNaN) {
			t.Errorf("-j %d NaN-bug search diverges: %+v != %+v", j, gotNaN, wantNaN)
		}
		if !reflect.DeepEqual(gotK1, wantK1) {
			t.Errorf("-j %d k=1 search diverges: %+v != %+v", j, gotK1, wantK1)
		}
	}
}

// TestBisectStatsPlumbing: every search noted on an engine lands in
// BisectStats, and the paper counter matches the reports exactly.
func TestBisectStatsPlumbing(t *testing.T) {
	eng := NewEngine(2)
	res, err := eng.RunNaNBug()
	if err != nil {
		t.Fatal(err)
	}
	bs := eng.BisectStats()
	if bs.Searches != 1 {
		t.Fatalf("Searches = %d after one search", bs.Searches)
	}
	if bs.Execs != int64(res.Execs) {
		t.Fatalf("stats execs %d != report execs %d", bs.Execs, res.Execs)
	}
	if bs.SpecExecs != int64(res.SpecExecs) {
		t.Fatalf("stats spec %d != report spec %d", bs.SpecExecs, res.SpecExecs)
	}
	if _, err := eng.Table4(); err != nil {
		t.Fatal(err)
	}
	bs2 := eng.BisectStats()
	if bs2.Searches != 1+12*3 {
		t.Fatalf("Searches = %d after Table4, want %d", bs2.Searches, 1+12*3)
	}
	if bs2.Execs <= bs.Execs {
		t.Fatal("Table4 searches not folded into the paper counter")
	}
}

// TestWarmStartSkipsRecomputation: an artifact exported from one engine
// warm-starts a fresh engine without a complete shard set — the warmed run
// answers every evaluation from the cache and produces identical output.
func TestWarmStartSkipsRecomputation(t *testing.T) {
	first := NewEngine(2)
	rows, err := first.Table4()
	if err != nil {
		t.Fatal(err)
	}
	art := first.ExportArtifact(nil)

	warmed := NewEngine(2)
	if err := warmed.WarmStart(art); err != nil {
		t.Fatal(err)
	}
	rows2, err := warmed.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, rows2) {
		t.Fatal("warm-started Table4 differs from the cold run")
	}
	if misses := warmed.CacheMetrics().Runs.Misses; misses != 0 {
		t.Fatalf("warm-started run recomputed %d evaluations", misses)
	}

	// A foreign engine version must still be rejected.
	bad := *art
	bad.Engine = "flit-engine/0-foreign"
	if err := NewEngine(1).WarmStart(&bad); err == nil {
		t.Fatal("foreign artifact accepted by WarmStart")
	}
}
