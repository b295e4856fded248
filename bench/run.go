package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/flit"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// Work is a directory the run may fill and must remove: store
	// directories, coordinator tenancies.
	Work string
}

// runner carries one invocation's state: the samples of every metric, the
// operation counts behind error_rate, and the tracer of a traced run.
type runner struct {
	cfg config
	j   int // engine parallelism: one worker per CPU
	tr  *tracer
	// pass is the lane of the benchmark's own goroutine: store calls made
	// during a pass hang under that pass's span.
	pass *lane

	samples map[string][]float64
	// searchMs are the latencies of the cold passes' bisect searches.
	searchMs []float64

	attempted, failed int
	failures          []string

	start    time.Time
	budget   time.Duration
	coldRefS float64 // untraced cold pass of a traced run, for the overhead ratio
}

func newRunner(cfg config) *runner {
	r := &runner{cfg: cfg, j: runtime.GOMAXPROCS(0), samples: map[string][]float64{},
		budget: time.Duration(cfg.Seconds) * time.Second}
	if cfg.Trace {
		r.tr = newTracer()
		r.pass = &lane{}
	}
	return r
}

func (r *runner) note(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// opN counts n operations that stand or fall together.
func (r *runner) opN(n int, problem string) {
	r.attempted += n
	if problem != "" {
		r.failN(n, problem)
	}
}

// failN fails n operations already counted, as many as there are.
func (r *runner) failN(n int, problem string) {
	n = min(n, r.attempted-r.failed)
	if n <= 0 {
		return
	}
	r.failed += n
	if len(r.failures) < 10 {
		r.failures = append(r.failures, problem)
	}
}

// check counts n operations whose output is compared byte for byte against
// the reference.
func (r *runner) check(n int, what, got, want string) {
	problem := ""
	if got != want {
		problem = fmt.Sprintf("%s: output differs from the -j 1 reference%s", what, firstDiff(got, want))
	}
	r.opN(n, problem)
}

func firstDiff(got, want string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			lo := max(0, i-40)
			return fmt.Sprintf(" at byte %d: got %q, want %q", i, clip(got[lo:], 80), clip(want[lo:], 80))
		}
	}
	return fmt.Sprintf(" (lengths %d and %d)", len(got), len(want))
}

func clip(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// setupReps is how many times the sweep, store and bisect workloads repeat
// their set-up, about 1.4 s each; setup_s is the median.
const setupReps = 3

// setup times fn setupReps times and keeps the last result.
func setup[T any](r *runner, fn func() (T, error)) (T, error) {
	var out T
	for i := 0; i < setupReps; i++ {
		err := r.timeSetup(fmt.Sprintf("setup-%d", i), func(open) (err error) {
			out, err = fn()
			return err
		})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// timeSetup times one set-up as a setup_s sample, under a span of its own.
// Like a pass, it starts from a collected heap.
func (r *runner) timeSetup(req string, fn func(sp open) error) error {
	runtime.GC()
	sp := r.tr.begin("setup", 0, req)
	t0 := time.Now()
	err := fn(sp)
	r.note("setup_s", time.Since(t0).Seconds())
	sp.end()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	return nil
}

// rounds runs round(i) until the measuring budget is spent: a round starts
// only while time is left, so a run overruns its budget by at most one
// round, and a host slow enough to spend the whole budget on one round
// still gets that one. The clock starts at the first round, after set-up
// and the reference.
func (r *runner) rounds(round func(i int) error) error {
	r.start = time.Now()
	for i := 0; i == 0 || time.Since(r.start) < r.budget; i++ {
		if err := round(i); err != nil {
			return err
		}
	}
	return nil
}

// pass is one timed pass: kind is "cold" or "warm". It records the wall
// time (cold_s or warm_s) and, for a cold pass, its CPU time and runtime
// counters. In a traced run the pass has a span and owns the pass lane.
func (r *runner) timePass(kind string, i int, fn func(sp open) error) error {
	// Every pass starts from a collected heap, so that it does not pay for
	// the garbage of the one before.
	runtime.GC()
	sp := r.tr.begin("pass."+kind, 0, fmt.Sprintf("%s-%d", kind, i))
	r.pass.set(sp.id(), sp.s.Req)
	var ms0, ms1 runtime.MemStats
	if kind == "cold" {
		runtime.ReadMemStats(&ms0)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn(sp)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	sp.end()
	r.pass.set(0, "")
	if err != nil {
		return fmt.Errorf("%s pass %d: %w", kind, i, err)
	}
	r.note(kind+"_s", wall.Seconds())
	if kind == "cold" {
		runtime.ReadMemStats(&ms1)
		r.note("cold_cpu_s", cpu.Seconds())
		r.note("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		r.note("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		r.note("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	}
	return nil
}

// measure runs the rounds and then, in a traced run, one untraced cold
// pass: the baseline of trace.overhead_ratio. It runs last, so that it is
// as warmed up as the traced passes it is compared with.
func (r *runner) measure(round func(i int) error, untracedCold func() error) error {
	if err := r.rounds(round); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	return r.untracedColdPass(untracedCold)
}

// untracedColdPass gives a traced run its own baseline for
// trace.overhead_ratio: one cold pass with the tracer detached. Its
// outputs are still checked; its samples are not kept.
func (r *runner) untracedColdPass(fn func() error) error {
	tr, pass, samples, searchMs := r.tr, r.pass, r.samples, r.searchMs
	r.tr, r.pass, r.samples = nil, nil, map[string][]float64{}
	defer func() { r.tr, r.pass, r.samples, r.searchMs = tr, pass, samples, searchMs }()
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	r.coldRefS = time.Since(t0).Seconds()
	return nil
}

// phase is a traced call into one driver of a pass.
func (r *runner) phase(parent open, name string, fn func() error) error {
	sp := r.tr.begin(name, parent.id(), parent.s.Req)
	err := fn()
	sp.end()
	return err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// scratch returns a fresh directory under the run's work area.
func (r *runner) scratch(prefix string) (string, error) {
	return os.MkdirTemp(r.cfg.Work, prefix)
}

// encodeArtifact exports an engine's cache as artifact bytes, the form a
// shard artifact or -warm-start manifest takes on disk.
func (r *runner) encodeArtifact(eng *experiments.Engine) ([]byte, error) {
	sp := r.tr.begin("flit.artifact_encode", 0, "")
	t0 := time.Now()
	var buf bytes.Buffer
	err := eng.ExportArtifact(nil).WriteJSON(&buf)
	r.note("flit.artifact_encode_s", time.Since(t0).Seconds())
	sp.end()
	r.note("flit.artifact_bytes", float64(buf.Len()))
	return buf.Bytes(), err
}

// warmEngine is the warm pass's start: decode an artifact and seed a fresh
// engine with it, as `-warm-start` does.
func (r *runner) warmEngine(art []byte) (*experiments.Engine, error) {
	t0 := time.Now()
	a, err := flit.ReadArtifact(bytes.NewReader(art))
	r.note("flit.artifact_decode_s", time.Since(t0).Seconds())
	if err != nil {
		return nil, err
	}
	eng := experiments.NewEngine(r.j)
	return eng, eng.WarmStart(a)
}

// removeAll deletes a scratch directory; a failure leaves litter in the
// work area, which the run reports but survives.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: removing %s: %v\n", dir, err)
	}
}
