package main

// metricSpec declares one reported metric. Every name and unit here must
// match BENCHMARK.json (a test checks it); Bound is the share of the base
// median by which an end-to-end metric may worsen before a change counts as
// a regression.
type metricSpec struct {
	Name  string
	Unit  string
	Bound float64
}

// endToEnd are the numbers a user of the system waits on, reported by every
// untraced run of every workload. All of them are lower-is-better. The
// bounds of the times are as wide as allowed because the host's speed, not
// the benchmark, sets their spread from run to run (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", 0.25},
	{"cold_s", "s", 0.25},
	{"cold_cpu_s", "s", 0.25},
	{"warm_s", "s", 0.25},
	{"execs_per_search", "count", 0.20},
	{"peak_rss_mb", "MB", 0.20},
}

// coordRoutes are the coordinator and object-store requests the traced
// server middleware times separately. Heartbeats and failure reports are
// left out: shards finish well inside one lease TTL and none fails, so on
// a healthy run those routes never fire; a failure report still shows in
// coord.fail_reports and fails an operation.
var coordRoutes = []string{"lease", "complete", "campaigns", "submit", "object_get", "object_put"}

// perLayer are the single-layer numbers a traced run (-trace 1) reports
// for every workload; a layer the workload never reaches reads 0.
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"experiments.matrix_s", "s", 0},
		{"experiments.figures_s", "s", 0},
		{"experiments.bisect_sample_s", "s", 0},
		{"experiments.laghos_s", "s", 0},
		{"experiments.injection_s", "s", 0},
		{"experiments.warmstart_s", "s", 0},
		{"experiments.replay_s", "s", 0},
		{"experiments.runshard_s", "s", 0},
		{"experiments.merge_s", "s", 0},

		{"link.plan_key_p50_us", "us", 0},
		{"link.plan_key_s", "s", 0},
		{"link.link_p50_us", "us", 0},
		{"link.link_s", "s", 0},
		{"comp.cost_p50_us", "us", 0},
		{"comp.cost_s", "s", 0},
		{"flit.runall_p50_us", "us", 0},
		{"flit.runall_s", "s", 0},

		{"flit.run_lookups", "count", 0},
		{"flit.run_hit_ratio", "ratio", 0},
		{"flit.cost_lookups", "count", 0},
		{"flit.builds", "count", 0},
		{"flit.skipped_builds", "count", 0},
		{"flit.warm_builds", "count", 0},
		{"flit.artifact_bytes", "bytes", 0},
		{"flit.artifact_encode_s", "s", 0},
		{"flit.artifact_decode_s", "s", 0},

		{"bisect.searches", "count", 0},
		{"bisect.search_p50_ms", "ms", 0},
		{"bisect.search_p98_ms", "ms", 0},
		{"bisect.execs", "count", 0},
		{"bisect.spec_execs", "count", 0},
		{"bisect.spec_useful_ratio", "ratio", 0},
		{"bisect.segfault_searches", "count", 0},
		{"bisect.builds", "count", 0},

		{"store.get_calls", "count", 0},
		{"store.get_hit_ratio", "ratio", 0},
		{"store.get_s", "s", 0},
		{"store.get_p50_us", "us", 0},
		{"store.get_p99_us", "us", 0},
		{"store.put_calls", "count", 0},
		{"store.put_s", "s", 0},
		{"store.put_p50_us", "us", 0},
		{"store.put_p99_us", "us", 0},
		{"store.put_bytes", "bytes", 0},
		{"store.busy_share", "ratio", 0},
		{"store.busy_base_s", "s", 0},
		{"store.write_atomic_p50_us", "us", 0},

		{"http.requests", "count", 0},
		{"http.rtt_p50_ms", "ms", 0},
		{"http.rtt_p99_ms", "ms", 0},
		{"http.retries", "count", 0},
		{"http.wait_s", "s", 0},
	}
	for _, r := range coordRoutes {
		ms = append(ms,
			metricSpec{"coord." + r + "_calls", "count", 0},
			metricSpec{"coord." + r + "_p50_ms", "ms", 0},
			metricSpec{"coord." + r + "_p99_ms", "ms", 0},
			metricSpec{"coord." + r + "_s", "s", 0})
	}
	return append(ms,
		metricSpec{"coord.journal_bytes", "bytes", 0},
		metricSpec{"coord.lease_empty_ratio", "ratio", 0},
		metricSpec{"coord.releases", "count", 0},
		metricSpec{"coord.fail_reports", "count", 0},
		metricSpec{"coord.quarantined", "count", 0},

		metricSpec{"runtime.alloc_mb", "MB", 0},
		metricSpec{"runtime.gc_cycles", "count", 0},
		metricSpec{"runtime.gc_pause_ms", "ms", 0},

		metricSpec{"trace.overhead_ratio", "ratio", 0},
	)
}()
