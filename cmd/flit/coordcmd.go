package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/store"
)

// drainTimeout bounds how long a shutting-down server waits for in-flight
// requests before closing their connections.
const drainTimeout = 5 * time.Second

// serveGracefully serves h on ln until SIGINT/SIGTERM (or the optional
// done channel fires), then stops accepting, drains in-flight requests
// within drainTimeout, and returns nil — so a supervised `flit store
// serve` or `flit coord serve` exits 0 on an orderly stop instead of
// dying mid-response.
func serveGracefully(h http.Handler, ln net.Listener, done <-chan struct{}, stdout io.Writer) error {
	srv := &http.Server{Handler: h}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		fmt.Fprintln(stdout, "shutting down: draining in-flight requests")
	case <-done:
		fmt.Fprintln(stdout, "campaigns complete: draining in-flight requests")
	}
	stop()
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		// The drain deadline passed with requests still open; close them.
		srv.Close()
	}
	return nil
}

// cmdCoord dispatches the coordinator subcommands.
func cmdCoord(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errors.New(`coord requires a subcommand: "serve", "status", "submit", or "gc"`)
	}
	switch args[0] {
	case "serve":
		return cmdCoordServe(args[1:], stdout, stderr)
	case "status":
		return cmdCoordStatus(args[1:], stdout, stderr)
	case "submit":
		return cmdCoordSubmit(args[1:], stdout, stderr)
	case "gc":
		return cmdCoordGC(args[1:], stdout, stderr)
	default:
		return fmt.Errorf(`unknown coord subcommand %q (want "serve", "status", "submit", or "gc")`, args[0])
	}
}

// cmdCoordServe runs the campaign coordinator: the flitd service. One
// process owns one coordinator directory holding the journal, the
// completed shard artifacts (one subdirectory per campaign), and an
// object store; its HTTP mux serves both the coordination protocol
// (/v1/coord/) and the object-store protocol (/v1/objects/), so workers
// point a single -coord URL at it for scheduling *and* result
// write-through. The coordinator is multi-tenant: -shards N COMMAND
// submits an initial campaign, `flit coord submit` adds more while it
// runs, and a directory with a journal resumes every campaign in it —
// crash recovery is just restarting with the same -dir, and every lease
// the journal holds gets one fresh TTL for its worker to heartbeat. A
// journal in any format but v3 (the v1 single-campaign and v2
// pre-containment formats of older builds) is refused; resubmit its
// campaigns.
func cmdCoordServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coord serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "coordinator directory: journal, shard artifacts, object store (required)")
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	shards := fs.Int("shards", 0, "shard count for the initial campaign (the command trailing the flags)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "lease lifetime without a heartbeat")
	maxAttempts := fs.Int("max-shard-attempts", coord.DefaultMaxShardAttempts,
		"attempts a shard gets (lease grants + failures) before it is quarantined")
	exitWhenDone := fs.Bool("exit-when-done", false, "exit once every submitted campaign reaches a terminal state (complete or failed)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("coord serve requires -dir DIR")
	}
	var command []string
	if fs.NArg() > 0 {
		var err error
		if command, _, err = experiments.ParseCommand(fs.Args()); err != nil {
			return err
		}
	}
	if (command == nil) != (*shards == 0) {
		return errors.New("coord serve wants a command and -shards together (or neither)")
	}
	if *leaseTTL <= 0 || *maxAttempts < 1 {
		return fmt.Errorf("coord serve: -lease-ttl must be positive and -max-shard-attempts at least 1, got %s and %d",
			*leaseTTL, *maxAttempts)
	}
	c, err := coord.New(*dir, coord.Options{LeaseTTL: *leaseTTL, MaxShardAttempts: *maxAttempts})
	if err != nil {
		return err
	}
	if command != nil {
		id, created, err := c.Submit(coord.Spec{Command: command, Shards: *shards})
		if err != nil {
			return err
		}
		if created {
			fmt.Fprintf(stdout, "campaign %s: submitted %q as %d shards\n", id, coord.CommandString(command), *shards)
		} else {
			fmt.Fprintf(stdout, "campaign %s: already registered, resuming\n", id)
		}
	}
	for _, ci := range c.Campaigns() {
		fmt.Fprintf(stdout, "campaign %s: coordinating %q as %d shards (%d/%d done)\n",
			ci.ID, coord.CommandString(ci.Command), ci.Shards, ci.Done, ci.Shards)
	}
	// The shared object store lives inside the coordinator directory:
	// worker write-through lands here, so a re-leased shard's replacement
	// replays its predecessor's results as warm hits — across campaigns
	// too, because store keys are injective over the same coordinates
	// that name a campaign.
	d, err := store.Open(filepath.Join(*dir, "store"), c.Engine())
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", store.Handler(d))
	mux.Handle("/v1/coord/", coord.Handler(c))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("coord serve: %w", err)
	}
	fmt.Fprintf(stdout, "coordinating %d campaign(s) (engine %s) on http://%s\n",
		len(c.Campaigns()), c.Engine(), ln.Addr())
	var done <-chan struct{}
	if *exitWhenDone {
		done = c.Done()
	}
	if err := serveGracefully(mux, ln, done, stdout); err != nil {
		return err
	}
	var invalid, failed []string
	for _, ci := range c.Campaigns() {
		fmt.Fprintf(stdout, "campaign %s: %d/%d shards complete, %d re-leases\n",
			ci.ID, ci.Done, ci.Shards, ci.Releases)
		if ci.Failed {
			fmt.Fprintf(stdout, "campaign %s: FAILED — %s\n", ci.ID, ci.Problem)
			failed = append(failed, fmt.Sprintf("%s: %s", ci.ID, ci.Problem))
			continue
		}
		if !ci.Complete {
			continue
		}
		if !ci.Validated {
			invalid = append(invalid, fmt.Sprintf("%s: %s", ci.ID, ci.Problem))
			continue
		}
		fmt.Fprintf(stdout, "campaign %s: artifact set validated; merge with: flit merge %s\n",
			ci.ID, filepath.Join(c.ArtifactDir(ci.ID), "shard-*.json"))
	}
	var errs []string
	if len(failed) > 0 {
		errs = append(errs, fmt.Sprintf("campaign(s) failed terminally: %s", strings.Join(failed, "; ")))
	}
	if len(invalid) > 0 {
		errs = append(errs, fmt.Sprintf("campaign artifacts fail merge validation: %s", strings.Join(invalid, "; ")))
	}
	if len(errs) > 0 {
		return errors.New(strings.Join(errs, "; "))
	}
	return nil
}

// coordClient builds the engine-fenced scheduling client the one-shot
// coord subcommands (status, submit, gc) share.
func coordClient(coordURL string) (*coord.Client, error) {
	if coordURL == "" {
		return nil, errors.New("-coord URL is required")
	}
	return coord.NewClient(coordURL, flit.EngineVersion, nil)
}

// cmdCoordStatus renders the fleet view of a running coordinator: one
// line per campaign, or the per-lease detail of one campaign with
// -campaign. It is a pure read — the coordinator mutates no scheduling
// state answering it, so operators can poll as hard as they like.
func cmdCoordStatus(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coord status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordURL := fs.String("coord", "", "campaign coordinator URL (required)")
	campaign := fs.String("campaign", "", "campaign ID: show per-shard detail instead of the fleet view")
	if err := parseFlagsOnly(fs, args); err != nil {
		return err
	}
	cl, err := coordClient(*coordURL)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *campaign != "" {
		st, err := cl.Status(ctx, *campaign)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "campaign %s: %q as %d shards (engine %s)\n",
			st.ID, coord.CommandString(st.Command), st.Shards, st.Engine)
		fmt.Fprintf(stdout, "  done %d/%d, %d re-leases, attempt budget %d%s\n",
			st.Done, st.Shards, st.Releases, st.MaxAttempts,
			statusSuffix(st.Complete, st.Failed, st.Validated, st.Problem))
		for _, l := range st.Leases {
			expiry := fmt.Sprintf("expires in %dms", l.ExpiresMS)
			if l.ExpiresMS < 0 {
				// Expired but not reclaimed: the next heartbeat revives it, the
				// next lease poll sweeps it. Status only reports the gap.
				expiry = fmt.Sprintf("expired %dms ago, awaiting sweep or revival", -l.ExpiresMS)
			}
			fmt.Fprintf(stdout, "  shard %d leased to %s (%s, %s)\n", l.Shard, l.Worker, l.LeaseID, expiry)
		}
		for _, i := range st.Quarantined {
			attempts := 0
			if i < len(st.Attempts) {
				attempts = st.Attempts[i]
			}
			fmt.Fprintf(stdout, "  shard %d: QUARANTINED after %d attempts\n", i, attempts)
		}
		for _, f := range st.Failures {
			fmt.Fprintf(stdout, "  shard %d attempt %d failed (%s): %s\n", f.Shard, f.Attempt, f.Worker, f.Error)
			if line := excerptLine(f.Excerpt); line != "" {
				fmt.Fprintf(stdout, "    excerpt: %s\n", line)
			}
		}
		return nil
	}
	infos, err := cl.Campaigns(ctx)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Fprintln(stdout, "no campaigns submitted")
		return nil
	}
	for _, ci := range infos {
		quarantined := ""
		if ci.Quarantined > 0 {
			quarantined = fmt.Sprintf(", %d quarantined", ci.Quarantined)
		}
		fmt.Fprintf(stdout, "campaign %s: %q as %d shards — done %d/%d, %d leased, %d re-leases%s%s\n",
			ci.ID, coord.CommandString(ci.Command), ci.Shards, ci.Done, ci.Shards,
			ci.Leases, ci.Releases, quarantined, statusSuffix(ci.Complete, ci.Failed, ci.Validated, ci.Problem))
	}
	return nil
}

// statusSuffix renders a campaign's terminal state for the status views.
func statusSuffix(complete, failed, validated bool, problem string) string {
	switch {
	case failed:
		return fmt.Sprintf(" — FAILED: %s", problem)
	case !complete:
		return ""
	case validated:
		return " — complete, validated"
	default:
		return fmt.Sprintf(" — complete, VALIDATION FAILED: %s", problem)
	}
}

// excerptLine compresses a (possibly multi-line) failure excerpt into one
// status line: its first non-empty line, clipped.
func excerptLine(excerpt string) string {
	for _, line := range strings.Split(excerpt, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if len(line) > 120 {
			line = line[:120] + "…"
		}
		return line
	}
	return ""
}

// cmdCoordSubmit validates the command trailing its flags and registers
// it as a campaign with a running coordinator. Submission is idempotent:
// re-submitting the same command and shard count names the existing
// campaign, so supervisors can submit on every start without
// double-scheduling.
func cmdCoordSubmit(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coord submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordURL := fs.String("coord", "", "campaign coordinator URL (required)")
	shards := fs.Int("shards", 0, "shard count (required)")
	maxAttempts := fs.Int("max-shard-attempts", 0,
		"attempts a shard gets before quarantine (0 = the coordinator's default; not part of the campaign's identity)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 || *shards < 1 {
		return errors.New("coord submit requires -shards N and a command, e.g. experiments table4")
	}
	command, _, err := experiments.ParseCommand(fs.Args())
	if err != nil {
		return err
	}
	if *maxAttempts < 0 {
		return errors.New("coord submit: -max-shard-attempts must be >= 0")
	}
	cl, err := coordClient(*coordURL)
	if err != nil {
		return err
	}
	id, created, err := cl.Submit(context.Background(), command, *shards, *maxAttempts)
	if err != nil {
		return err
	}
	if created {
		fmt.Fprintf(stdout, "campaign %s: submitted %q as %d shards\n", id, coord.CommandString(command), *shards)
	} else {
		fmt.Fprintf(stdout, "campaign %s: already registered\n", id)
	}
	return nil
}

// cmdCoordGC asks a running coordinator to retire superseded completed
// campaign generations — the server-side form of `flit gc`, riding the
// coordinator's ownership of the journal so no artifact a live campaign
// references can be deleted out from under it.
func cmdCoordGC(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("coord gc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordURL := fs.String("coord", "", "campaign coordinator URL (required)")
	keep := fs.Int("keep", 1, "completed generations to keep per command")
	dryRun := fs.Bool("dry-run", false, "plan the retirement without changing anything")
	if err := parseFlagsOnly(fs, args); err != nil {
		return err
	}
	if *keep < 1 {
		return fmt.Errorf("coord gc: -keep must be at least 1, got %d", *keep)
	}
	cl, err := coordClient(*coordURL)
	if err != nil {
		return err
	}
	res, err := cl.GC(context.Background(), *keep, *dryRun)
	if err != nil {
		return err
	}
	verb := "retired"
	if *dryRun {
		verb = "would retire"
	}
	for _, id := range res.Retired {
		fmt.Fprintf(stdout, "campaign %s: %s (superseded generation)\n", id, verb)
	}
	fmt.Fprintf(stdout, "%s %d campaign(s), kept %d\n", verb, len(res.Retired), res.Kept)
	return nil
}

// cmdWork runs the worker loop against a campaign coordinator: list the
// campaigns, lease a shard of the first incomplete one, run the recorded
// command with the ordinary experiments drivers, upload the artifact,
// repeat until every campaign is done — the fleet drains one campaign
// and picks up the next without restarting. The coordinator's own object
// store is attached as the engine cache's persistent tier (optionally
// fronted by a local -store DIR). SIGINT/SIGTERM drains: scheduling calls
// are cancelled immediately, but the shard already running is finished
// and reported, then the loop exits 0.
func cmdWork(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordURL := fs.String("coord", "", "campaign coordinator URL (flit coord serve; required)")
	name := fs.String("name", "", "worker name reported to the coordinator (default host:pid)")
	j := fs.Int("j", 0, "parallel evaluations within a shard (0 = one per CPU)")
	storeDir := fs.String("store", "", "local run-store directory layered in front of the coordinator's store")
	stats := fs.Bool("stats", false, "print transport counters to stderr when the loop ends")
	verbose := fs.Bool("v", false, "log each lease/heartbeat-loss/completion event to stderr")
	if err := parseFlagsOnly(fs, args); err != nil {
		return err
	}
	cl, err := coordClient(*coordURL)
	if err != nil {
		return err
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	tier, remote, err := store.OpenTiers(*storeDir, *coordURL, flit.EngineVersion)
	if err != nil {
		return err
	}
	// FLIT_WORK_STALL makes this worker hold each leased shard idle (while
	// heartbeating) before running it — the deterministic straggler the
	// SIGKILL smoke needs: kill the stalled worker and its lease expires on
	// schedule, with no timing race against real work.
	var stallFor time.Duration
	if v := os.Getenv("FLIT_WORK_STALL"); v != "" {
		if stallFor, err = time.ParseDuration(v); err != nil {
			return fmt.Errorf("FLIT_WORK_STALL: %w", err)
		}
	}
	// FLIT_WORK_FAIL="<command-substring>:<shard-index>" makes this worker
	// fail that one shard of any campaign whose command contains the
	// substring — the deterministic poison the quarantine smoke needs:
	// every lease of that shard costs an attempt until the coordinator
	// quarantines it, while every other shard and campaign runs normally.
	failSubstr, failShard := "", -1
	if v := os.Getenv("FLIT_WORK_FAIL"); v != "" {
		sub, idxStr, ok := strings.Cut(v, ":")
		if !ok || sub == "" {
			return fmt.Errorf("FLIT_WORK_FAIL: want %q, got %q", "<command-substring>:<shard-index>", v)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil || idx < 0 {
			return fmt.Errorf("FLIT_WORK_FAIL: bad shard index %q", idxStr)
		}
		failSubstr, failShard = sub, idx
	}
	runner := func(command []string, shard exec.Shard) ([]byte, error) {
		if stallFor > 0 {
			time.Sleep(stallFor)
		}
		if failSubstr != "" && shard.Index == failShard &&
			strings.Contains(coord.CommandString(command), failSubstr) {
			return nil, fmt.Errorf("FLIT_WORK_FAIL: injected deterministic failure for %q shard %d", failSubstr, shard.Index)
		}
		return experiments.RunShard(command, shard, *j, tier)
	}
	logW := io.Discard
	if *verbose {
		logW = stderr
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	wstats, werr := coord.Work(ctx, cl, runner, coord.WorkerOptions{Name: *name, Log: logW})
	if *stats {
		printRemoteStats(stderr, remote.Metrics())
		fmt.Fprintf(stderr, "coord: completed=%d lost=%d failed=%d retries=%d\n",
			wstats.Completed, wstats.Lost, wstats.Failed, cl.Retries())
	}
	switch {
	case werr == nil:
		fmt.Fprintf(stdout, "worker %s: campaigns terminal (%d shards completed here, %d lost to re-lease, %d failed)\n",
			*name, wstats.Completed, wstats.Lost, wstats.Failed)
		return nil
	case errors.Is(werr, context.Canceled):
		// The drain path: the in-flight shard (if any) was finished and
		// reported before the loop returned.
		fmt.Fprintf(stdout, "worker %s: drained (%d shards completed here, %d lost to re-lease, %d failed)\n",
			*name, wstats.Completed, wstats.Lost, wstats.Failed)
		return nil
	default:
		return werr
	}
}
