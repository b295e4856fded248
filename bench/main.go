// Command bench is the repository's benchmark: one seeded, self-checking
// driver for what a FLiT user waits on — a full experiments sweep, the
// same sweep through an on-disk store, a run of bisect searches, and a
// coordinator draining campaigns over HTTP. It calls the engine's public
// packages in process, repeats every timed pass, checks every pass's
// output byte for byte against a -j 1 reference it computes in the same
// run, and prints each metric by name and unit, as a table and as one JSON
// object on the last line of standard output.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bench -workload sweep|store|bisect|coord -seed N -seconds S -trace 0|1 [-out F.jsonl] [-trace-out F.jsonl]
//	bench compare -base A.jsonl -head B.jsonl
//
// See bench/README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// buildDir holds everything a run leaves behind: the binary, scratch state
// and the spans of traced runs.
const buildDir = ".bench_build"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

var workloads = []string{"sweep", "store", "bisect", "coord"}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sweep, store, bisect or coord")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 10, "how long the timed passes run, in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	out := fs.String("out", "", "append this run's record, with every sample, to this JSONL file")
	traceOut := fs.String("trace-out", "", "write a traced run's spans here as JSONL (default "+buildDir+"/spans-WORKLOAD-SEED.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !known(*workload) || (*trace != 0 && *trace != 1) || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: want -workload %v, -trace 0 or 1, -seconds >= 1 and no arguments\n", workloads)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer removeAll(work)
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Work: work}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.Trace {
		path := *traceOut
		if path == "" {
			path = filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.Workload, cfg.Seed))
		}
		if err := res.tr.writeJSONL(path); err != nil {
			fmt.Fprintln(stderr, "bench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %s\n", path)
		printSelfTimes(stdout, selfTimes(res.tr.snapshot()))
	}
	rec := res.record()
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench: writing record:", err)
			return 1
		}
	}
	printTable(stdout, rec)
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "bench: FAILED:", f)
	}
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res)
}

// exitCode is a finished run's exit status: 1 when any operation failed.
func exitCode(r *runner) int {
	if r.failed > 0 {
		return 1
	}
	return 0
}

func known(w string) bool {
	for _, k := range workloads {
		if w == k {
			return true
		}
	}
	return false
}

// run executes one workload and computes its metrics.
func run(cfg config) (*runner, error) {
	r := newRunner(cfg)
	var err error
	switch cfg.Workload {
	case "sweep":
		err = r.runSweep(false)
	case "store":
		err = r.runSweep(true)
	case "bisect":
		err = r.runBisect()
	case "coord":
		err = r.runCoord()
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	if r.attempted == 0 {
		return nil, errors.New("no operations ran")
	}
	if cfg.Trace {
		if err := r.probe(); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
		if err := r.writeAtomicProbe(); err != nil {
			return nil, fmt.Errorf("write probe: %w", err)
		}
	}
	return r, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (rec *record) result() result {
	specs := endToEnd
	if rec.Trace {
		specs = perLayer
	}
	m := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		m[s.Name] = metricValue{Value: rec.Metrics[s.Name].Value, Unit: s.Unit}
	}
	return result{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: m}
}

func printTable(w io.Writer, rec *record) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  commit %s  nproc %d  GOMAXPROCS %d  %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Commit, rec.NProc, rec.GoMaxProcs, rec.GoVersion)
	fmt.Fprintf(w, "%-32s %-6s %12s %12s %12s %12s %12s %6s\n",
		"metric", "unit", "median", "q1", "q3", "min", "max", "n")
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%-32s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %6d\n",
			n, m.Unit, m.Value, m.Summary.Q1, m.Summary.Q3, m.Summary.Min, m.Summary.Max, m.Summary.N)
	}
	if len(rec.ThinTails) > 0 {
		fmt.Fprintf(w, "fewer than ten samples beyond: %s\n", strings.Join(rec.ThinTails, ", "))
	}
	fmt.Fprintf(w, "operations %d, failed %d, error_rate %.4g\n", rec.Attempted, rec.Failed, rec.ErrorRate)
}
