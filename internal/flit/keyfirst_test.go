package flit

import (
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/fp"
	"repro/internal/link"
)

// TestPlanRunKeyMatchesEagerKeys: a run key is the plan's key and the
// escaped test key, NUL-separated, and building it never materializes the
// plan.
func TestPlanRunKeyMatchesEagerKeys(t *testing.T) {
	s := newSuite()
	plan := link.FullBuildPlan(s.Prog, s.Baseline)
	b := link.NewBuilder(plan)
	if got, want := PlanRunKey(b, s.Tests[0]), plan.Key()+"\x00"+comp.KeyEscape(TestKey(s.Tests[0])); got != want {
		t.Fatalf("PlanRunKey %q != plan run key %q", got, want)
	}
	if b.Built() {
		t.Fatal("key construction materialized the plan")
	}
}

// TestRunAllPlannedLazyOnHit: the build thunk is invoked on a miss and
// never on a hit; results are bit-identical either way; the cache's build
// accounting sees one materialization and one skipped build.
func TestRunAllPlannedLazyOnHit(t *testing.T) {
	s := newSuite()
	cache := NewCache()
	plan := link.FullBuildPlan(s.Prog, s.Baseline)

	cold := link.NewBuilder(plan)
	first, err := cache.RunAllPlanned(s.Tests[0], cold)
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Built() {
		t.Fatal("miss did not materialize the plan")
	}

	warm := link.NewBuilder(plan)
	again, err := cache.RunAllPlanned(s.Tests[0], warm)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Built() {
		t.Fatal("hit materialized the plan — the key-first fast path built anyway")
	}
	if L2Diff(first, again) != 0 {
		t.Fatal("key-first hit returned different bits")
	}
	m := cache.Metrics()
	if m.Builds != 1 { // the miss materialized once
		t.Errorf("Builds = %d, want 1", m.Builds)
	}
	if m.SkippedBuilds != 1 { // the warm builder
		t.Errorf("SkippedBuilds = %d, want 1", m.SkippedBuilds)
	}
	if b, sk := cache.BuildStats(); b != m.Builds || sk != m.SkippedBuilds {
		t.Errorf("BuildStats (%d,%d) disagrees with Metrics (%d,%d)", b, sk, m.Builds, m.SkippedBuilds)
	}

	// A nil cache still works — it just builds and runs.
	var nc *Cache
	nb := link.NewBuilder(plan)
	r, err := nc.RunAllPlanned(s.Tests[0], nb)
	if err != nil || L2Diff(first, r) != 0 {
		t.Fatalf("nil-cache RunAllPlanned: %v (diff %g)", err, L2Diff(first, r))
	}
	if !nb.Built() {
		t.Fatal("nil cache cannot answer without building")
	}
}

// TestRunAllPlannedMemoizesBuildError: an unbuildable plan's error is
// memoized under its key like any run error.
func TestRunAllPlannedMemoizesBuildError(t *testing.T) {
	s := newSuite()
	cache := NewCache()
	bad := link.Plan{Prog: s.Prog, Baseline: s.Baseline,
		Files: []link.Override{{Name: "nosuch.cpp", Comp: comp.PerfReference()}}}
	if _, err := cache.RunAllPlanned(s.Tests[0], link.NewBuilder(bad)); err == nil {
		t.Fatal("unbuildable plan ran")
	}
	second := link.NewBuilder(bad)
	if _, err := cache.RunAllPlanned(s.Tests[0], second); err == nil {
		t.Fatal("memoized build error lost")
	}
	if second.Built() {
		t.Fatal("memoized build error still re-linked the plan")
	}
}

// TestWarmStartedMatrixBuildsNothing: the acceptance pin for key-first
// execution — a matrix run whose every evaluation is covered by imported
// artifacts constructs zero executables, at -j 1 and fanned out, and its
// Results are byte-identical to the cold run's.
func TestWarmStartedMatrixBuildsNothing(t *testing.T) {
	matrix := comp.Matrix()

	cold := newSuite()
	cold.Cache = NewCache()
	coldRes, err := cold.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(coldRes)
	art := cold.Cache.Export(exec.Shard{}, []string{"matrix"})
	if cm := cold.Cache.Metrics(); cm.Builds == 0 {
		t.Fatal("cold run reported zero builds — the accounting is broken")
	}

	for _, j := range []int{1, 8} {
		warm := newSuite()
		warm.Cache = NewCache()
		if j > 1 {
			warm.Pool = exec.New(j)
		}
		if err := warm.Cache.WarmStart(false, art); err != nil {
			t.Fatal(err)
		}
		warmRes, err := warm.RunMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixFingerprint(warmRes); got != want {
			t.Errorf("j=%d: warm-started matrix differs from cold run", j)
		}
		m := warm.Cache.Metrics()
		if m.Builds != 0 {
			t.Errorf("j=%d: fully covered matrix materialized %d executables, want 0", j, m.Builds)
		}
		if m.SkippedBuilds == 0 {
			t.Errorf("j=%d: no skipped builds recorded on a fully warm run", j)
		}
		if m.Runs.Misses != 0 {
			t.Errorf("j=%d: %d run misses on a fully covered matrix", j, m.Runs.Misses)
		}
	}
}

// TestPartiallyWarmMatrixBuildsOnlyInvalidated: delta-aware cell skipping —
// seed a baseline that covers everything except one compilation's cells;
// the re-run must materialize exactly that cell's build and nothing else.
func TestPartiallyWarmMatrixBuildsOnlyInvalidated(t *testing.T) {
	matrix := comp.Matrix()
	victim := matrix[len(matrix)/2]

	cold := newSuite()
	cold.Cache = NewCache()
	coldRes, err := cold.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(coldRes)

	// Strip the victim compilation's records from the baseline, simulating
	// a matrix edit that invalidated exactly one cell column.
	full := cold.Cache.Export(exec.Shard{}, nil)
	victimKey := link.FullBuildPlan(cold.Prog, victim).Key()
	pruned := &Artifact{Version: full.Version, Engine: full.Engine, Shard: full.Shard}
	for _, r := range full.Runs {
		if !strings.HasPrefix(r.Key, victimKey+"\x00") {
			pruned.Runs = append(pruned.Runs, r)
		}
	}
	if len(pruned.Runs) == len(full.Runs) {
		t.Fatal("victim key matched no runs — the pruning is vacuous")
	}

	warm := newSuite()
	warm.Cache = NewCache()
	if err := warm.Cache.WarmStart(false, pruned); err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	if got := matrixFingerprint(warmRes); got != want {
		t.Error("partially warm matrix differs from cold run")
	}
	m := warm.Cache.Metrics()
	if m.Builds != 1 {
		t.Errorf("one invalidated cell materialized %d executables, want exactly 1", m.Builds)
	}
	if m.Runs.Misses != int64(len(warm.Tests)) {
		t.Errorf("run misses = %d, want %d (the invalidated cell's tests)",
			m.Runs.Misses, len(warm.Tests))
	}
}

// arithTest enters Kernel for one addition and one multiplication, which
// read no Semantics field but FlushSubnormals.
type arithTest struct{ *dotTest }

func (arithTest) Name() string { return "ArithTest" }

func (a arithTest) Run(input []float64, m *link.Machine) (Result, error) {
	env, done := m.Fn(a.prog.MustSymbol("Kernel"))
	defer done()
	return ScalarResult(env.Mul(env.Add(input[0], input[1]), input[2])), nil
}

// TestRunAllPlannedSharesEqualBehavior: a plan-key miss whose executable
// agrees with an earlier run on everything that run read builds (it is a
// new plan) but shares that run instead of executing the test again; both
// plan keys still get their own entry, exported like any other. An
// executable that differs in something the run read executes.
func TestRunAllPlannedSharesEqualBehavior(t *testing.T) {
	s := newSuite()
	cache := NewCache()
	run := func(c comp.Compilation) Result {
		t.Helper()
		r, err := cache.RunAllPlanned(s.Tests[0], link.NewBuilder(link.FullBuildPlan(s.Prog, c)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// g++ is value-safe at every -O level without flags: -O0 and -O1
	// generate the same code under different plan keys.
	gccO1 := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O1"}
	first, second := run(s.Baseline), run(gccO1)
	if L2Diff(first, second) != 0 {
		t.Fatal("equally behaving executables returned different bits")
	}
	m := cache.Metrics()
	if m.Runs.Misses != 2 || m.Runs.Entries != 2 || m.Builds != 2 {
		t.Errorf("plan-key layer: %+v, builds %d; want 2 misses, 2 entries, 2 builds", m.Runs, m.Builds)
	}
	if m.Execs.Misses != 1 || m.Execs.Hits != 1 {
		t.Errorf("executions ran=%d shared=%d, want ran=1 shared=1", m.Execs.Misses, m.Execs.Hits)
	}
	if got := len(cache.Export(exec.Shard{}, nil).Runs); got != 2 {
		t.Errorf("artifact holds %d runs, want both plan keys", got)
	}

	run(s.Baseline.WithInjection("Kernel", fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.5}))
	if m := cache.Metrics(); m.Execs.Misses != 2 || m.Execs.Hits != 1 {
		t.Errorf("an injected run: ran=%d shared=%d, want ran=2 shared=1", m.Execs.Misses, m.Execs.Hits)
	}
	// A plan-key hit never reaches the run memo.
	run(gccO1)
	if m := cache.Metrics(); m.Execs.Misses+m.Execs.Hits != 3 {
		t.Errorf("a plan-key hit consulted the run memo: %+v", m.Execs)
	}

	// Extended precision changes Kernel's code, so the dot test runs
	// under both compilations; a test that never reads the field shares
	// one run between them.
	icpcO0 := comp.Compilation{Compiler: comp.ICPC, OptLevel: "-O0"}
	double := comp.Compilation{Compiler: comp.ICPC, OptLevel: "-O1", Switches: "-fp-model double"}
	arith := arithTest{&dotTest{prog: s.Prog}}
	for _, c := range []comp.Compilation{icpcO0, double} {
		if _, err := cache.RunAllPlanned(arith, link.NewBuilder(link.FullBuildPlan(s.Prog, c))); err != nil {
			t.Fatal(err)
		}
	}
	if m := cache.Metrics(); m.Execs.Misses != 3 || m.Execs.Hits != 2 {
		t.Errorf("a run reading no differing field: ran=%d shared=%d, want ran=3 shared=2", m.Execs.Misses, m.Execs.Hits)
	}
	if L2Diff(run(icpcO0), run(double)) == 0 {
		t.Error("extended precision does not change the dot test's result")
	}
	if m := cache.Metrics(); m.Execs.Misses != 5 || m.Execs.Hits != 2 {
		t.Errorf("a run reading a differing field: ran=%d shared=%d, want ran=5 shared=2", m.Execs.Misses, m.Execs.Hits)
	}
}
