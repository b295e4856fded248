package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/flit"
)

// record is one run as written to -out: the metrics with every raw sample,
// the operation counts, and the provenance a later comparison needs — the
// commit, the host shape and the toolchain.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Engine     string `json:"engine"`

	SetupReps  int `json:"setup_reps"`
	ColdPasses int `json:"cold_passes"`
	WarmPasses int `json:"warm_passes"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	ErrorRate float64  `json:"error_rate"`
	Failures  []string `json:"failures,omitempty"`

	Metrics map[string]recMetric `json:"metrics"`
	// ThinTails are the percentile metrics with fewer than ten samples
	// beyond them: read them as indications, not as tail latencies.
	ThinTails []string `json:"thin_tails,omitempty"`
}

type recMetric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Summary summary   `json:"summary"`
	Samples []float64 `json:"samples,omitempty"`
}

func (r *runner) record() *record {
	commit, dirty := gitState()
	rec := &record{
		Workload: r.cfg.Workload, Seed: r.cfg.Seed, Seconds: r.cfg.Seconds, Trace: r.cfg.Trace,
		Commit: commit, Dirty: dirty,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH, Engine: flit.EngineVersion,
		SetupReps:  len(r.samples["setup_s"]),
		ColdPasses: len(r.samples["cold_s"]),
		WarmPasses: len(r.samples["warm_s"]),
		Attempted:  r.attempted, Failed: r.failed,
		ErrorRate: ratio(float64(r.failed), float64(r.attempted)),
		Failures:  r.failures,
		Metrics:   map[string]recMetric{},
	}
	unit := map[string]string{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		unit[s.Name] = s.Unit
	}
	put := func(name string, value float64, samples []float64) {
		rec.Metrics[name] = recMetric{Value: value, Unit: unit[name], Summary: summarize(samples), Samples: samples}
	}
	for _, name := range []string{"setup_s", "cold_s", "cold_cpu_s", "warm_s", "execs_per_search"} {
		put(name, median(r.samples[name]), r.samples[name])
	}
	rss := peakRSSMB()
	put("peak_rss_mb", rss, []float64{rss})
	if r.cfg.Trace {
		layers, thin := r.layers()
		rec.ThinTails = thin
		for _, s := range perLayer {
			put(s.Name, layers[s.Name].v, layers[s.Name].samples)
		}
	}
	return rec
}

// gitState reports the commit of the checkout the benchmark runs in and
// whether its tracked files differ from it; "unknown" outside a git
// repository of its own.
func gitState() (commit string, dirty bool) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", false
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil || !samePath(strings.TrimSpace(string(top)), wd) {
		return "unknown", false
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(head)), err != nil || len(strings.TrimSpace(string(status))) > 0
}

func samePath(a, b string) bool {
	ra, err1 := filepath.EvalSymlinks(a)
	rb, err2 := filepath.EvalSymlinks(b)
	return err1 == nil && err2 == nil && ra == rb
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads every record of a JSONL file.
func readRecords(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rec := &record{}
		if err := json.Unmarshal([]byte(line), rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}
