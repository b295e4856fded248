package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/apps/lulesh"
	"repro/internal/bisect"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/inject"
	"repro/internal/link"
	"repro/internal/store"
)

// sweepInputs are the seeded draws one sweep pass runs: the Table 2 bisect
// sample and the LULESH injection sites.
type sweepInputs struct {
	pairs []flit.RunResult
	sites []inject.Site
}

// classify is the set-up of the sweep, store and bisect workloads: a fresh
// engine runs the 244×19 MFEM matrix, whose variable cells the seed draws
// from.
func classify(j int) ([]flit.RunResult, error) {
	res, err := experiments.NewEngine(j).Results()
	if err != nil {
		return nil, err
	}
	return res.VariableRuns(), nil
}

// sweepPass runs, on eng, the drivers `flit experiments sweep` runs, at the
// same sizes, with the bisect pairs and injection sites drawn by the seed:
// the MFEM matrix with Table 1 and Figures 5/6, the bisect sample fanned
// out through the engine's pool as Table 2 does, the Laghos motivation,
// Table 4 and NaN bug, and the injection sample. It returns the rendered
// digest and what the cold pass reports about its searches.
func (r *runner) sweepPass(eng *experiments.Engine, in sweepInputs, parent open) (sweepOut, error) {
	var b strings.Builder
	var out sweepOut
	err := r.phase(parent, "experiments.matrix", func() error {
		_, err := eng.Results()
		return err
	})
	if err != nil {
		return out, err
	}
	err = r.phase(parent, "experiments.figures", func() error {
		rows, err := eng.Table1()
		if err != nil {
			return err
		}
		b.WriteString("== Table 1 ==\n" + experiments.RenderTable1(rows))
		fig5, err := eng.Figure5()
		if err != nil {
			return err
		}
		repro := 0
		for _, f := range fig5 {
			if f.FastestIsReproducible {
				repro++
			}
		}
		fmt.Fprintf(&b, "== Figure 5 ==\nfastest-reproducible: %d of %d\n", repro, len(fig5))
		fig6, err := eng.Figure6()
		if err != nil {
			return err
		}
		b.WriteString("== Figure 6 ==\n")
		for _, f := range fig6 {
			fmt.Fprintf(&b, "ex%02d variable=%d min=%v med=%v max=%v\n",
				f.Example, f.VariableComps, f.MinErr, f.MedianErr, f.MaxErr)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	err = r.phase(parent, "experiments.bisect_sample", func() error {
		b.WriteString("== Bisect sample ==\n")
		builds0, _ := eng.Cache().BuildStats()
		err := r.bisectSample(eng, in.pairs, parent, &b, &out.searches)
		builds1, _ := eng.Cache().BuildStats()
		out.searches.builds = builds1 - builds0
		return err
	})
	if err != nil {
		return out, err
	}
	err = r.phase(parent, "experiments.laghos", func() error {
		mo, err := experiments.RunMotivation()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "== Motivation ==\nrel-diff=%v speedup=%v\n", mo.RelDiff, mo.SpeedupFactor)
		t4, err := eng.Table4()
		if err != nil {
			return err
		}
		b.WriteString("== Table 4 ==\n" + experiments.RenderTable4(t4))
		nan, err := eng.RunNaNBug()
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "== NaN bug ==\nexecs=%d files=%v symbols=%v\n", nan.Execs, nan.Files, nan.Symbols)
		return nil
	})
	if err != nil {
		return out, err
	}
	var inj inject.Summary
	err = r.phase(parent, "experiments.injection", func() error {
		inj = eng.LULESHStudy().Run(in.sites)
		fmt.Fprintf(&b, "== Table 5 sample (%d sites) ==\n%s", len(in.sites), experiments.RenderTable5(inj))
		return nil
	})
	if err != nil {
		return out, err
	}
	st := eng.BisectStats()
	fmt.Fprintf(&b, "== Bisect totals ==\nsearches=%d execs=%d\n", st.Searches, st.Execs)
	out.digest = b.String()
	out.execsPerSearch = ratio(float64(st.Execs+int64(inj.TotalRuns)), float64(st.Searches+int64(inj.Bisected)))
	return out, nil
}

// sweepOut is one sweep pass's result.
type sweepOut struct {
	digest   string
	searches searchStats
	// execsPerSearch is over every search of the pass: the bisect sample's,
	// Table 4's, the NaN bug's and those of the injection campaign.
	execsPerSearch float64
}

// searchStats describes the searches of one pass: each one's latency in
// milliseconds, and the bisect layer's counters.
type searchStats struct {
	ms                     []float64
	execs, spec, segfaults int
	builds                 int64
}

func (s *searchStats) add(report *bisect.Report, err error, ms float64) {
	s.ms = append(s.ms, ms)
	if report != nil {
		s.execs += report.Execs
		s.spec += report.SpecExecs
	}
	if errors.Is(err, link.ErrSegfault) {
		s.segfaults++
	}
}

// noteSearches records a cold pass's searches for the bisect layer's
// metrics: their latencies and counters.
func (r *runner) noteSearches(s searchStats) {
	r.searchMs = append(r.searchMs, s.ms...)
	r.note("bisect.searches", float64(len(s.ms)))
	r.note("bisect.execs", float64(s.execs))
	r.note("bisect.spec_execs", float64(s.spec))
	r.note("bisect.spec_useful_ratio", ratio(float64(s.execs), float64(s.execs+s.spec)))
	r.note("bisect.segfault_searches", float64(s.segfaults))
	r.note("bisect.builds", float64(s.builds))
}

// bisectSample runs the sampled searches the way Table 2 does: whole
// searches fan out through the engine's pool, each sequential inside, and
// are folded in selection order.
func (r *runner) bisectSample(eng *experiments.Engine, pairs []flit.RunResult, parent open,
	b *strings.Builder, st *searchStats) error {
	wf := eng.Workflow()
	type out struct {
		report *bisect.Report
		err    error
		ms     float64
	}
	outs, err := exec.Map(eng.Pool(), len(pairs), func(k int) (out, error) {
		rr := pairs[k]
		test := wf.TestByName(rr.Test)
		if test == nil {
			return out{}, fmt.Errorf("no test %q in the MFEM suite", rr.Test)
		}
		sp := r.tr.begin("bisect.search", parent.id(), fmt.Sprintf("%s/search-%d", parent.s.Req, k))
		t0 := time.Now()
		s := &bisect.Search{Prog: wf.Suite.Prog, Test: test, Baseline: wf.Suite.Baseline,
			Variable: rr.Comp, Cache: eng.Cache()}
		report, err := s.Run()
		ms := msSince(t0)
		sp.end()
		return out{report: report, err: err, ms: ms}, nil
	})
	if err != nil {
		return err
	}
	for k, o := range outs {
		eng.NoteBisect(o.report)
		st.add(o.report, o.err, o.ms)
		b.WriteString(renderSearch(pairs[k], o.report, o.err))
	}
	return nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// renderSearch is one search's outcome as `flit bisect` would report it,
// minus the speculative count, which depends on timing.
func renderSearch(rr flit.RunResult, report *bisect.Report, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | %s |", rr.Test, rr.Comp)
	if report != nil {
		fmt.Fprintf(&b, " execs=%d novar=%v", report.Execs, report.NoVariability)
		for _, ff := range report.Files {
			fmt.Fprintf(&b, " %s:%v:%v", ff.File, ff.Status, ff.Value)
			for _, sf := range ff.Symbols {
				fmt.Fprintf(&b, " %s=%v", sf.Item, sf.Value)
			}
		}
	}
	if err != nil {
		fmt.Fprintf(&b, " err=%v", err)
	}
	b.WriteString("\n")
	return b.String()
}

// Warm passes per cold pass: a warm pass costs about a tenth of a cold
// one, so several of them fit beside each cold pass.
const (
	sweepWarmPerCold = 4
	storeWarmPerCold = 3
)

// runSweep is the sweep workload, and with a store attached the store
// workload: the same seeded sweep, cold on a fresh engine (and, for store,
// an empty store directory), then warm — from the cold pass's artifact, or
// from the store directory alone.
func (r *runner) runSweep(withStore bool) error {
	variable, err := setup(r, func() ([]flit.RunResult, error) {
		if withStore {
			dir, err := r.scratch("setup-store-")
			if err != nil {
				return nil, err
			}
			defer removeAll(dir)
			if _, err := store.Open(dir, flit.EngineVersion); err != nil {
				return nil, err
			}
		}
		return classify(r.j)
	})
	if err != nil {
		return err
	}
	in := sweepInputs{
		pairs: drawSweepPairs(r.cfg.Seed, variable),
		sites: drawSites(r.cfg.Seed, inject.EnumerateSites(lulesh.Program())),
	}
	var want string
	if err := r.reference(func() error {
		out, err := r.sweepPass(experiments.NewEngine(1), in, open{})
		want = out.digest
		return err
	}); err != nil {
		return err
	}

	// One cold pass: a fresh engine, with an empty store for the store
	// workload, which the round deletes when its warm passes are done.
	cold := func(sp open) (*experiments.Engine, string, error) {
		eng := experiments.NewEngine(r.j)
		var disk *store.Disk
		var dir string
		if withStore {
			var err error
			if dir, err = r.scratch("store-"); err != nil {
				return nil, "", err
			}
			if disk, err = store.Open(dir, flit.EngineVersion); err != nil {
				return nil, dir, err
			}
			eng.AttachStore(r.traceStore(disk, r.pass))
		}
		got, err := r.sweepPass(eng, in, sp)
		if err != nil {
			return nil, dir, err
		}
		r.check(1, "cold pass", got.digest, want)
		r.storeHealth(eng, disk)
		r.noteSearches(got.searches)
		r.note("execs_per_search", got.execsPerSearch)
		r.noteCache("", eng)
		return eng, dir, nil
	}
	// One warm pass: a fresh engine warm-started from the cold pass's
	// artifact, or attached to the cold pass's store directory.
	warm := func(sp open, art []byte, dir string) error {
		var eng *experiments.Engine
		var disk *store.Disk
		err := r.phase(sp, "experiments.warmstart", func() (err error) {
			if !withStore {
				eng, err = r.warmEngine(art)
				return err
			}
			eng = experiments.NewEngine(r.j)
			if disk, err = store.Open(dir, flit.EngineVersion); err != nil {
				return err
			}
			eng.AttachStore(r.traceStore(disk, r.pass))
			return nil
		})
		if err != nil {
			return err
		}
		var got sweepOut
		err = r.phase(sp, "experiments.replay", func() (err error) {
			got, err = r.sweepPass(eng, in, sp)
			return err
		})
		if err != nil {
			return err
		}
		r.check(1, "warm pass", got.digest, want)
		r.storeHealth(eng, disk)
		r.noteCache("warm_", eng)
		return nil
	}
	warmPerCold := sweepWarmPerCold
	if withStore {
		warmPerCold = storeWarmPerCold
	}
	round := func(i int) error {
		var eng *experiments.Engine
		var dir string
		err := r.timePass("cold", i, func(sp open) (err error) {
			eng, dir, err = cold(sp)
			return err
		})
		defer removeAll(dir)
		if err != nil {
			return err
		}
		var art []byte
		if !withStore {
			if art, err = r.encodeArtifact(eng); err != nil {
				return err
			}
		}
		eng = nil // the warm passes must not pay for the cold engine's heap
		for w := 0; w < warmPerCold; w++ {
			err := r.timePass("warm", i*warmPerCold+w, func(sp open) error { return warm(sp, art, dir) })
			if err != nil {
				return err
			}
		}
		return nil
	}
	return r.measure(round, func() error {
		_, dir, err := cold(open{})
		removeAll(dir)
		return err
	})
}

// reference computes the untimed -j 1 in-memory reference output, with the
// tracer detached.
func (r *runner) reference(fn func() error) error {
	tr, pass := r.tr, r.pass
	r.tr, r.pass = nil, nil
	defer func() { r.tr, r.pass = tr, pass }()
	if err := fn(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return nil
}

// storeHealth fails the pass's last operation if the store tier reported
// an error: an undecodable entry, a failed write-through, a corrupt file.
func (r *runner) storeHealth(eng *experiments.Engine, disk *store.Disk) {
	if disk == nil {
		return
	}
	if m := eng.CacheMetrics().Store; m.Errors > 0 || disk.CorruptReads() > 0 {
		r.failN(1, fmt.Sprintf("store tier reported %d errors and %d corrupt reads", m.Errors, disk.CorruptReads()))
	}
}

// noteCache records the build/run cache's counters after a pass.
func (r *runner) noteCache(prefix string, eng *experiments.Engine) {
	m := eng.CacheMetrics()
	lookups := float64(m.Runs.Hits + m.Runs.Misses)
	if prefix == "" {
		r.note("flit.run_lookups", lookups)
		r.note("flit.run_hit_ratio", ratio(float64(m.Runs.Hits), lookups))
		r.note("flit.cost_lookups", float64(m.Costs.Hits+m.Costs.Misses))
		r.note("flit.builds", float64(m.Builds))
		return
	}
	r.note("flit.warm_builds", float64(m.Builds))
	r.note("flit.skipped_builds", float64(m.SkippedBuilds))
}

// traceStore wraps a store in the tracing decorator when the run is traced.
func (r *runner) traceStore(s store.Store, l *lane) store.Store {
	if r.tr == nil {
		return s
	}
	return &tracedStore{inner: s, t: r.tr, lane: l}
}
