package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/store"
)

// The coord workload's campaigns: four recorded commands sharing one
// coordinator and one object store.
var coordCommands = [][]string{
	{"experiments", "table3"},
	{"experiments", "table4"},
	{"experiments", "laghos-nan"},
	{"experiments", "table5-sample"},
}

// Campaign sizes: the seed splits coordShards shards among the four
// campaigns, each within [coordShardsMin, coordShardsMax].
const (
	coordShards    = 256
	coordShardsMin = 48
	coordShardsMax = 80
	coordSetupReps = 8 // per round
	coordPollEvery = 5 * time.Millisecond
)

// The tenancy directory's layout, as `flit coord serve` lays it out and
// package coord writes it: the journal, the shared run store, and each
// campaign's shard artifacts.
const (
	coordJournal    = "coord.json"
	coordStoreDir   = "store"
	shardArtifactFn = "shard-%d.json"
)

// tenancy is one in-process coordinator: its journal and artifact
// directory, the shared object store, and both protocols on one loopback
// listener.
type tenancy struct {
	dir    string
	c      *coord.Coordinator
	url    string
	srv    *http.Server
	served chan error
}

func (r *runner) openTenancy() (*tenancy, error) {
	dir, err := r.scratch("coord-")
	if err != nil {
		return nil, err
	}
	t := &tenancy{dir: dir}
	if t.c, err = coord.New(dir, coord.Options{}); err != nil {
		removeAll(dir)
		return nil, err
	}
	disk, err := store.Open(filepath.Join(dir, coordStoreDir), flit.EngineVersion)
	if err != nil {
		removeAll(dir)
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", store.Handler(disk))
	mux.Handle("/v1/coord/", coord.Handler(t.c))
	var h http.Handler = mux
	if r.tr != nil {
		h = traceHandler(r.tr, mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		removeAll(dir)
		return nil, err
	}
	t.url = "http://" + ln.Addr().String()
	t.srv = &http.Server{Handler: h}
	t.served = make(chan error, 1)
	go func() { t.served <- t.srv.Serve(ln) }()
	return t, nil
}

// close stops the server, waits for it, and deletes the tenancy.
func (t *tenancy) close() {
	t.srv.Close()
	<-t.served
	removeAll(t.dir)
}

func (t *tenancy) journalBytes() float64 {
	fi, err := os.Stat(filepath.Join(t.dir, coordJournal))
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// client is one HTTP client with a single connection, shared by a
// worker's coordinator client and its object-store tier.
func (r *runner) client(l *lane) (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	var rt http.RoundTripper = tr
	if r.tr != nil {
		rt = &tracedTransport{base: rt, t: r.tr, lane: l}
	}
	return &http.Client{Transport: rt}, tr
}

// submit registers the campaigns over HTTP, as `flit coord submit` does.
func (r *runner) submit(t *tenancy, cds []campaignDraw, parent open) ([]string, error) {
	l := &lane{}
	l.set(parent.id(), parent.s.Req)
	hc, tr := r.client(l)
	defer tr.CloseIdleConnections()
	cl, err := coord.NewClient(t.url, flit.EngineVersion, &store.RemoteOptions{Client: hc})
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(cds))
	for i, cd := range cds {
		id, created, err := cl.Submit(context.Background(), cd.Command, cd.Shards, 0)
		if err != nil {
			return nil, err
		}
		if !created {
			return nil, fmt.Errorf("campaign %q/%d was already registered", cd.Command, cd.Shards)
		}
		ids[i] = id
	}
	return ids, nil
}

// fleetStats is what one generation's workers saw.
type fleetStats struct {
	runS    float64 // summed time inside the Runner
	retries int64   // re-sent requests, scheduling and store
	errors  int64   // degraded store operations
}

// drain runs one worker per CPU against the tenancy until every campaign
// is terminal. Each worker runs its shards at -j 1, and its coordinator
// client and store tier share one connection.
func (r *runner) drain(t *tenancy, parent open) (fleetStats, error) {
	var mu sync.Mutex
	var fs fleetStats
	errs := make([]error, r.j)
	var wg sync.WaitGroup
	for w := 0; w < r.j; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			one, err := r.work(t, w, parent)
			mu.Lock()
			fs.runS += one.runS
			fs.retries += one.retries
			fs.errors += one.errors
			mu.Unlock()
			errs[w] = err
		}(w)
	}
	wg.Wait()
	return fs, errors.Join(errs...)
}

func (r *runner) work(t *tenancy, w int, parent open) (fleetStats, error) {
	var fs fleetStats
	root := r.tr.begin("worker", parent.id(), fmt.Sprintf("%s/w%d", parent.s.Req, w))
	defer root.end()
	var l *lane
	if r.tr != nil {
		l = &lane{}
		l.set(root.id(), root.s.Req)
	}
	hc, tr := r.client(l)
	defer tr.CloseIdleConnections()
	opts := &store.RemoteOptions{Client: hc}
	cl, err := coord.NewClient(t.url, flit.EngineVersion, opts)
	if err != nil {
		return fs, err
	}
	remote, err := store.NewRemote(t.url, flit.EngineVersion, opts)
	if err != nil {
		return fs, err
	}
	tier := r.traceStore(remote, l)
	run := func(command []string, shard exec.Shard) ([]byte, error) {
		sp := r.tr.begin("experiments.runshard", root.id(),
			fmt.Sprintf("%s/%d", strings.Join(command[1:], " "), shard.Index))
		l.set(sp.id(), sp.s.Req)
		t0 := time.Now()
		art, err := experiments.RunShard(command, shard, 1, tier)
		fs.runS += time.Since(t0).Seconds()
		l.set(root.id(), root.s.Req)
		sp.end()
		return art, err
	}
	_, err = coord.Work(withSpan(context.Background(), root), cl, run,
		coord.WorkerOptions{Name: fmt.Sprintf("w%d", w), PollEvery: coordPollEvery})
	m := remote.Metrics()
	fs.retries = cl.Retries() + m.Retries
	fs.errors = m.Errors
	return fs, err
}

// merge replays one completed campaign from its shard artifacts, as
// `flit merge` does, and returns the replayed output. It adds the
// artifacts' size and decoding time to g.
func (r *runner) merge(t *tenancy, cd campaignDraw, id string, parent open, g *genOut) (string, experiments.BisectStats, error) {
	sp := r.tr.begin("experiments.merge", parent.id(), id)
	defer sp.end()
	arts := make([]*flit.Artifact, cd.Shards)
	t0 := time.Now()
	for s := range arts {
		path := filepath.Join(t.c.ArtifactDir(id), fmt.Sprintf(shardArtifactFn, s))
		a, err := flit.ReadArtifactFile(path)
		if err != nil {
			return "", experiments.BisectStats{}, err
		}
		if fi, err := os.Stat(path); err == nil {
			g.artifactBytes += float64(fi.Size())
		}
		arts[s] = a
	}
	g.decodeS += time.Since(t0).Seconds()
	eng := experiments.NewEngine(r.j)
	if err := eng.ImportArtifacts(arts...); err != nil {
		return "", experiments.BisectStats{}, err
	}
	var buf bytes.Buffer
	if err := experiments.RunCommand(eng, cd.Command, &buf); err != nil {
		return "", experiments.BisectStats{}, err
	}
	return buf.String(), eng.BisectStats(), nil
}

// genOut is what one generation measured.
type genOut struct {
	fleet          fleetStats
	execsPerSearch float64
	mergeS         float64
	artifactBytes  float64 // the completed shard artifacts
	decodeS        float64 // reading them back for the merges
}

// generation drains the submitted campaigns, merges each one and checks
// it: every shard completion and every merge is an operation, failed when
// its campaign does not replay byte-identical to the reference, and the
// fleet's re-leases, failure reports, quarantines, retries and store
// errors each fail one more.
func (r *runner) generation(t *tenancy, cds []campaignDraw, ids []string, want map[string]string, sp open) (genOut, error) {
	var out genOut
	rel0, fail0, q0 := t.c.Releases(), t.c.FailReports(), t.c.QuarantinedShards()
	fs, err := r.drain(t, sp)
	out.fleet = fs
	if err != nil {
		return out, fmt.Errorf("draining: %w", err)
	}
	var execs, searches int64
	t0 := time.Now()
	for i, cd := range cds {
		got, bs, err := r.merge(t, cd, ids[i], sp, &out)
		if err != nil {
			return out, fmt.Errorf("merging %s: %w", ids[i], err)
		}
		execs += bs.Execs
		searches += bs.Searches
		st, err := t.c.Status(ids[i])
		if err != nil {
			return out, err
		}
		if !st.Complete || !st.Validated {
			got = fmt.Sprintf("campaign not complete and validated: %+v", st)
		}
		cmd := strings.Join(cd.Command, " ")
		r.check(cd.Shards+1, fmt.Sprintf("campaign %q (%d shards)", cmd, cd.Shards), got, want[cmd])
	}
	out.mergeS = time.Since(t0).Seconds()
	out.execsPerSearch = ratio(float64(execs), float64(searches))
	for _, e := range []struct {
		n    int64
		what string
	}{
		{t.c.Releases() - rel0, "coordinator re-leases"},
		{t.c.FailReports() - fail0, "failure reports"},
		{int64(t.c.QuarantinedShards() - q0), "quarantined shards"},
		{fs.retries, "request retries"},
		{fs.errors, "degraded store operations"},
	} {
		if e.n > 0 {
			r.failN(int(e.n), fmt.Sprintf("%d %s", e.n, e.what))
		}
	}
	return out, nil
}

// runCoord is the coord workload. Each round opens a fresh tenancy (the
// set-up), drains generation 1 of the four campaigns and merges them (the
// cold pass), then resubmits every command with one shard fewer — new
// campaign IDs, so every run result is already in the shared store — and
// drains and merges again (the warm pass).
func (r *runner) runCoord() error {
	cds := drawCampaigns(r.cfg.Seed, coordCommands, coordShards, coordShardsMin, coordShardsMax)
	want := map[string]string{}
	for _, cmd := range coordCommands {
		var buf bytes.Buffer
		if err := experiments.RunCommand(experiments.NewEngine(1), cmd, &buf); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		want[strings.Join(cmd, " ")] = buf.String()
	}
	warmCds := make([]campaignDraw, len(cds))
	for i, cd := range cds {
		warmCds[i] = campaignDraw{Command: cd.Command, Shards: cd.Shards - 1}
	}
	// open1 is a set-up: a tenancy and the generation-1 submits.
	open1 := func(parent open) (*tenancy, []string, error) {
		t, err := r.openTenancy()
		if err != nil {
			return nil, nil, err
		}
		ids, err := r.submit(t, cds, parent)
		if err != nil {
			t.close()
			return nil, nil, err
		}
		return t, ids, nil
	}
	round := func(i int) error {
		// A set-up takes a few milliseconds, most of it fsyncs, whose
		// latency on a shared disk comes and goes in spells of seconds; so
		// each round times several, spreading the samples over the run. The
		// last tenancy opened is the round's.
		var t *tenancy
		var ids []string
		for k := 0; k < coordSetupReps; k++ {
			if t != nil {
				t.close()
			}
			err := r.timeSetup(fmt.Sprintf("round-%d/%d", i, k), func(sp open) (err error) {
				t, ids, err = open1(sp)
				return err
			})
			if err != nil {
				return err
			}
		}
		defer t.close()
		err := r.timePass("cold", i, func(sp open) error {
			g, err := r.generation(t, cds, ids, want, sp)
			r.note("experiments.runshard_s", g.fleet.runS)
			r.note("experiments.merge_s", g.mergeS)
			r.note("flit.artifact_bytes", g.artifactBytes)
			r.note("flit.artifact_decode_s", g.decodeS)
			r.note("http.retries", float64(g.fleet.retries))
			r.note("execs_per_search", g.execsPerSearch)
			return err
		})
		if err != nil {
			return err
		}
		r.note("coord.journal_bytes", t.journalBytes())
		r.note("coord.releases", float64(t.c.Releases()))
		r.note("coord.fail_reports", float64(t.c.FailReports()))
		r.note("coord.quarantined", float64(t.c.QuarantinedShards()))
		return r.timePass("warm", i, func(sp open) error {
			var ids2 []string
			err := r.phase(sp, "experiments.warmstart", func() (err error) {
				ids2, err = r.submit(t, warmCds, sp)
				return err
			})
			if err != nil {
				return err
			}
			return r.phase(sp, "experiments.replay", func() error {
				_, err := r.generation(t, warmCds, ids2, want, sp)
				return err
			})
		})
	}
	return r.measure(round, func() error {
		t, ids, err := open1(open{})
		if err != nil {
			return err
		}
		defer t.close()
		_, err = r.generation(t, cds, ids, want, open{})
		return err
	})
}
