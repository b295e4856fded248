package main

import (
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/flit"
)

// The bisect workload's size: 500 searches leave ten samples beyond the
// p98 of one pass, and drawing them from the matrix's ~1,070 variable
// pairs keeps the mean execution count steady from seed to seed. A warm
// pass costs under a tenth of a cold one, so several fit beside each.
const (
	bisectSearches    = 500
	bisectWarmPerCold = 3
)

// runBisect is the bisect workload: the `flit bisect` path with
// speculation on, one search at a time over pairs the seed draws from the
// classified matrix, each pass on a fresh engine. Each warm pass re-runs
// the same searches on an engine warm-started from the cold pass's
// artifact.
func (r *runner) runBisect() error {
	variable, err := setup(r, func() ([]flit.RunResult, error) { return classify(r.j) })
	if err != nil {
		return err
	}
	pairs := drawSearchPairs(r.cfg.Seed, variable, bisectSearches)
	var want []string
	if err := r.reference(func() (err error) {
		want, _, err = r.searches(experiments.NewEngine(1), pairs, open{}, nil)
		return err
	}); err != nil {
		return err
	}
	cold := func(sp open) (*experiments.Engine, error) {
		eng := experiments.NewEngine(r.j)
		_, st, err := r.searches(eng, pairs, sp, want)
		if err != nil {
			return nil, err
		}
		st.builds = eng.CacheMetrics().Builds
		r.noteSearches(st)
		r.note("execs_per_search", ratio(float64(st.execs), float64(len(pairs))))
		r.noteCache("", eng)
		return eng, nil
	}
	round := func(i int) error {
		var eng *experiments.Engine
		err := r.timePass("cold", i, func(sp open) (err error) {
			eng, err = cold(sp)
			return err
		})
		if err != nil {
			return err
		}
		art, err := r.encodeArtifact(eng)
		if err != nil {
			return err
		}
		eng = nil // the warm passes must not pay for the cold engine's heap
		for w := 0; w < bisectWarmPerCold; w++ {
			err := r.timePass("warm", i*bisectWarmPerCold+w, func(sp open) error {
				var warm *experiments.Engine
				err := r.phase(sp, "experiments.warmstart", func() (err error) {
					warm, err = r.warmEngine(art)
					return err
				})
				if err != nil {
					return err
				}
				err = r.phase(sp, "experiments.replay", func() error {
					_, _, err := r.searches(warm, pairs, sp, want)
					return err
				})
				r.noteCache("warm_", warm)
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	return r.measure(round, func() error { _, err := cold(open{}); return err })
}

// searches runs the pairs' searches one after another through the
// workflow, as consecutive `flit bisect` invocations would, and returns
// each one's rendered report. With want set, each search is an operation
// checked against its reference.
func (r *runner) searches(eng *experiments.Engine, pairs []flit.RunResult, parent open, want []string) ([]string, searchStats, error) {
	wf := eng.Workflow()
	var st searchStats
	lines := make([]string, len(pairs))
	for k, rr := range pairs {
		test := wf.TestByName(rr.Test)
		if test == nil {
			return nil, st, fmt.Errorf("no test %q in the MFEM suite", rr.Test)
		}
		sp := r.tr.begin("bisect.search", parent.id(), fmt.Sprintf("%s/search-%d", parent.s.Req, k))
		t0 := time.Now()
		report, err := wf.Bisect(test, rr.Comp, 0)
		ms := msSince(t0)
		sp.end()
		eng.NoteBisect(report)
		st.add(report, err, ms)
		lines[k] = renderSearch(rr, report, err)
		if want != nil {
			r.check(1, fmt.Sprintf("search %d (%s, %s)", k, rr.Test, rr.Comp), lines[k], want[k])
		}
	}
	return lines, st, nil
}
