package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
)

// compare reads two sets of records — the parent commit's and a change's,
// several untraced runs per workload — and judges every end-to-end metric
// of every workload on its own row:
//
//   - improved: the change wins at least nine tenths of the run pairs
//     (ties count for neither) and the medians differ by more than the
//     spread of the base's own runs (the distance between their quartiles);
//   - worse: the head median exceeds the base median by more than the bound;
//   - unresolved: otherwise, when the runs spread wider than the metric's
//     bound and not every head run beats every base run, so "within bound"
//     would claim more than the runs show;
//   - within bound: anything else.
//
// execs_per_search is the paper's cost measure and exact for a given seed:
// any change at all in it is reported and fails the comparison.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "records of the parent commit (JSONL)")
	headPath := fs.String("head", "", "records of the change (JSONL)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *headPath == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "compare: want -base A.jsonl -head B.jsonl")
		return 2
	}
	base, err := readRecords(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	head, err := readRecords(*headPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	rows, err := compareRecords(base, head)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-8s %-17s %5s %12s %12s %12s %12s %12s %12s %6s %6s  %s\n",
		"workload", "metric", "runs", "base_med", "base_q1", "base_q3", "head_med", "head_q1", "head_q3",
		"change", "wins", "verdict")
	failed := false
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-8s %-17s %2d/%-2d %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %+5.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.BaseN, r.HeadN, r.Base.Median, r.Base.Q1, r.Base.Q3,
			r.Head.Median, r.Head.Q1, r.Head.Q3, 100*r.Change, 100*r.Wins, r.Verdict)
		if r.Verdict == verdictWorse || r.Verdict == verdictChanged {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictExact      = "identical"
	verdictChanged    = "CHANGED (must be exact)"
)

type compareRow struct {
	Workload, Metric string
	BaseN, HeadN     int
	Base, Head       summary
	Change           float64 // (head - base) / base of the medians
	Wins             float64 // share of run pairs the head won
	Verdict          string
}

// compareRecords pairs the untraced records of each workload and judges
// each end-to-end metric. Records of different host shapes are refused.
func compareRecords(base, head []*record) ([]compareRow, error) {
	if err := sameShape(append(append([]*record(nil), base...), head...)); err != nil {
		return nil, err
	}
	group := func(recs []*record) map[string][]*record {
		m := map[string][]*record{}
		for _, r := range recs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	b, h := group(base), group(head)
	var names []string
	for w := range b {
		if len(h[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no workload has untraced records on both sides")
	}
	var rows []compareRow
	for _, w := range names {
		for _, m := range endToEnd {
			rows = append(rows, judge(w, m, b[w], h[w]))
		}
	}
	return rows, nil
}

func sameShape(recs []*record) error {
	type shape struct {
		nproc, maxprocs int
		os, arch        string
	}
	var first *shape
	for _, r := range recs {
		s := shape{r.NProc, r.GoMaxProcs, r.OS, r.Arch}
		if first == nil {
			first = &s
			continue
		}
		if s != *first {
			return fmt.Errorf("records come from different host shapes: %+v and %+v", *first, s)
		}
	}
	return nil
}

func values(recs []*record, metric string) []float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

func judge(workload string, m metricSpec, base, head []*record) compareRow {
	bv, hv := values(base, m.Name), values(head, m.Name)
	row := compareRow{Workload: workload, Metric: m.Name, BaseN: len(bv), HeadN: len(hv),
		Base: summarize(bv), Head: summarize(hv)}
	row.Change = ratio(row.Head.Median-row.Base.Median, row.Base.Median)
	if m.Name == "execs_per_search" {
		row.Verdict = verdictExact
		if !exactBySeed(base, head, m.Name) {
			row.Verdict = verdictChanged
		}
		return row
	}
	// Pair the runs in order; every metric is lower-is-better.
	n := min(len(bv), len(hv))
	wins := 0
	for i := 0; i < n; i++ {
		if hv[i] < bv[i] {
			wins++
		}
	}
	row.Wins = ratio(float64(wins), float64(n))
	allBetter := row.Head.Max < row.Base.Min
	spread := max(ratio(row.Base.Q3-row.Base.Q1, row.Base.Median), ratio(row.Head.Q3-row.Head.Q1, row.Head.Median))
	switch {
	case row.Wins >= 0.9 && row.Base.Median-row.Head.Median > row.Base.Q3-row.Base.Q1:
		row.Verdict = verdictImproved
	case row.Change > m.Bound:
		row.Verdict = verdictWorse
	case spread > m.Bound && !allBetter:
		row.Verdict = verdictUnresolved
	default:
		row.Verdict = verdictWithin
	}
	return row
}

// exactBySeed reports whether every seed both sides ran gives the same
// value of a metric that must not move.
func exactBySeed(base, head []*record, metric string) bool {
	bySeed := map[int64]float64{}
	for _, r := range base {
		bySeed[r.Seed] = r.Metrics[metric].Value
	}
	for _, r := range head {
		if v, ok := bySeed[r.Seed]; ok && v != r.Metrics[metric].Value {
			return false
		}
	}
	return true
}
