// Command flit is the reproduction's command-line interface: it runs the
// FLiT compilation matrix over the MFEM examples, root-causes variability
// with Bisect, and regenerates every table and figure of the paper's
// evaluation.
//
// Usage:
//
//	flit run [-j N] [-test ExampleNN]        run the 244-compilation matrix
//	flit bisect [-j N] -test ExampleNN -comp "g++ -O3 -mavx2 -mfma" [-k N]
//	flit experiments [-j N] <table1|figure4|figure5|figure6|table2|table3|
//	                  findings|motivation|table4|laghos-nan|table5|mpi|
//	                  sweep|all>
//	flit merge [-j N] shard0.json shard1.json ...
//	flit delta -baseline a.json[,b.json...] [-delta-out report.json] new0.json ...
//	flit gc -dir DIR [-keep N] [-dry-run] [-warm-start a.json,b.json]
//	flit store stats -store DIR
//	flit store gc -store DIR [-max-entries N] [-max-bytes N] [-dry-run]
//	flit store serve -dir DIR [-addr HOST:PORT]
//	flit coord serve -dir DIR [-addr HOST:PORT] [-lease-ttl D] [-exit-when-done]
//	                 [-shards N COMMAND]
//	flit coord submit -coord URL -shards N COMMAND
//	flit coord status -coord URL [-campaign ID]
//	flit coord gc -coord URL [-keep N] [-dry-run]
//	flit work -coord URL [-j N] [-name ID] [-store DIR]
//
// "sweep" renders the sampled end-to-end digest of every subsystem on a
// fresh engine — the determinism witness the equivalence tests compare
// across -j values. It is not part of "all" (which already regenerates
// each full artifact individually), and "all" stands alone.
//
// COMMAND is a run, bisect or experiments invocation without the engine
// flags, validated with the CLI's own grammar before it is submitted.
//
// Every subcommand accepts -j N: the number of (compilation, test)
// evaluations executed concurrently by the parallel engine (0, the
// default, means one per CPU; 1 reproduces the paper's sequential order).
// Results are bit-identical at every -j.
//
// Distributed runs: -shard i/N partitions the deterministic job index
// space of a subcommand across N cooperating invocations (machines). A
// shard executes only its slice of the expensive evaluations and writes a
// self-describing JSON artifact (-shard-out) instead of the normal output.
// `flit merge` validates that the artifacts form a complete shard set from
// the same engine version and command that records no key with two bit
// patterns, seeds a fresh engine's cache with their union, and replays the
// recorded command — producing output byte-identical to an unsharded run.
//
// Observability: -stats prints build/run-cache hit/miss counters, how
// many tests actually executed and how many shared an earlier run whose
// every read value their executable shares ("executions: ran=N
// shared=M"), and the bisect searches' paper execution count to stderr
// after the run.
//
// Incremental runs: -warm-start a.json,b.json seeds the engine's cache
// from previously exported shard artifacts before the run. Unlike merge,
// no complete shard set is required — any artifacts from this engine
// version will do; covered evaluations become cache hits, everything else
// is recomputed, and the output is byte-identical to a cold run.
//
// Persistence: -store DIR attaches an on-disk run store as the cache's
// second tier. Every in-memory miss consults the store by plan key before
// building anything, and every fresh computation is written through — so
// a second process pointed at the same DIR serves covered evaluations
// with zero materialized builds, no -warm-start manifest required. The
// store is fenced to this build's engine version (a foreign store is
// rejected at startup), each process appends checksummed records to a
// segment of its own, and damaged or torn records are treated as misses
// and recomputed, never replayed. `flit store stats` reports entry count,
// bytes, and corruption; `flit store gc` compacts the segments, dropping
// damaged records and then the oldest entries down to
// -max-entries/-max-bytes.
//
// Remote stores: `flit store serve -dir DIR -addr HOST:PORT` exposes a
// Disk store over HTTP, and -remote URL on any subcommand attaches it as
// a persistent tier — the cross-machine form of -store, with the same
// engine fencing (per request, via headers) and corruption-as-miss
// discipline (every record is SHA-256 re-validated client-side).
// Transport faults are retried with exponential backoff and degrade to
// cache misses when exhausted, so a dead server costs recomputation,
// never a wrong result and never a failed campaign. -store DIR composes
// with -remote URL as a local read-through/write-through cache in front
// of the shared server; -stats adds a "remote:" traffic line. Each
// request gets 4 attempts of at most 5s each within a 30s operation
// deadline.
//
// Distributed campaigns: `flit coord serve` owns a *set* of campaigns —
// each a recorded command, a shard count, and the engine version, keyed
// by a campaign ID derived from exactly those coordinates — and `flit
// work -coord URL` workers lease shard indices from it instead of being
// assigned them by hand, draining one campaign and picking up the next.
// Campaigns are submitted at boot (-shards N COMMAND) or while the
// coordinator runs (`flit coord submit`); submission is idempotent by
// spec. Leases are time-bounded and renewed by heartbeat; a worker that
// crashes or stalls stops heartbeating and its shard is re-leased to the
// next worker that asks — and only a lease request reclaims, so `flit
// coord status` (the fleet view, or one campaign's per-lease detail with
// -campaign) is a pure read that never disturbs scheduling. Completions
// are last-writer-wins — shard artifacts are deterministic, so
// duplicate or late uploads carry identical bytes and are accepted
// idempotently. The coordinator journals every state change
// but a heartbeat atomically before acknowledging it; restarting it with
// the same -dir resumes every campaign exactly, each held lease with one
// fresh TTL (a journal in any format but v3 is refused: resubmit its
// campaigns). The same mux serves the object-store
// protocol, so workers write runs through to the coordinator's shared
// store and a re-leased shard replays its predecessor's finished cells
// as warm hits — across campaigns too, because store keys are injective over the same
// coordinates that name a campaign. On each campaign's final completion
// the coordinator validates its artifact set server-side;
// -exit-when-done exits 0 once every submitted campaign has. `flit
// coord gc` retires superseded completed generations (same command,
// older submission) server-side, inside the journal's ownership
// boundary. SIGINT/SIGTERM drain cleanly on both sides: the coordinator
// and store server stop accepting, finish in-flight requests, and exit
// 0; a worker cancels its scheduling polls immediately but finishes and
// reports the shard it is running, then exits 0.
//
// Incremental campaigns: with -warm-start in effect, -delta-out FILE
// writes a structured DeltaReport after the run — which build/run keys are
// new against the warmed baseline, which baseline keys were dropped, and
// (under -delta-verify, which recomputes covered evaluations instead of
// trusting them) which values diverged bit-exactly; -stats adds a one-line
// delta summary on stderr. `flit delta` computes the same report offline
// between two artifact sets, without re-running anything, and `flit gc`
// prunes superseded artifact generations from a campaign directory —
// grouped by (engine version, command, shard), keeping the newest -keep
// files per slot and never touching files named by its -warm-start list.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errParsed marks flag-parse failures the flag package has already
// reported on stderr, so run does not print them a second time.
var errParsed = errors.New("flag parse error")

// errHelp marks an explicit -h/-help request: usage was printed and the
// invocation succeeded.
var errHelp = errors.New("help requested")

// run dispatches a CLI invocation and returns its exit code: 0 on success,
// 1 on a runtime error, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "run", "bisect", "experiments":
		err = cmdCommand(args[0], args[1:], stdout, stderr)
	case "merge":
		err = cmdMerge(args[1:], stdout, stderr)
	case "delta":
		err = cmdDelta(args[1:], stdout, stderr)
	case "gc":
		err = cmdGc(args[1:], stdout, stderr)
	case "store":
		err = cmdStore(args[1:], stdout, stderr)
	case "coord":
		err = cmdCoord(args[1:], stdout, stderr)
	case "work":
		err = cmdWork(args[1:], stdout, stderr)
	default:
		usage(stderr)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, errHelp):
		return 0
	case errors.Is(err, errParsed):
		return 2
	default:
		fmt.Fprintln(stderr, "flit:", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  flit run [-j N] [-test ExampleNN]
  flit bisect [-j N] -test ExampleNN -comp "g++ -O3 -mavx2 -mfma" [-k N]
  flit experiments [-j N] <name|all>
  flit merge [-j N] shard0.json shard1.json ...
  flit delta -baseline a.json[,b.json...] [-delta-out report.json] new0.json ...
  flit gc -dir DIR [-keep N] [-dry-run] [-warm-start a.json,b.json]
  flit store stats -store DIR
  flit store gc -store DIR [-max-entries N] [-max-bytes N] [-dry-run]
  flit store serve -dir DIR [-addr HOST:PORT]
  flit coord serve -dir DIR [-addr HOST:PORT] [-lease-ttl D] [-exit-when-done]
                   [-shards N COMMAND]
  flit coord submit -coord URL -shards N COMMAND
  flit coord status -coord URL [-campaign ID]
  flit coord gc -coord URL [-keep N] [-dry-run]
  flit work -coord URL [-j N] [-name ID] [-store DIR]

experiment names: table1 figure4 figure5 figure6 table2 table3 findings
  motivation table4 laghos-nan table5 mpi, or "sweep" for the sampled
  end-to-end digest of every subsystem; "all", alone, runs the twelve

COMMAND is a run, bisect or experiments invocation without the engine
flags, e.g. bisect -test Example13 -comp "g++ -O3", checked up front.

-j N runs up to N evaluations in parallel (0 = one per CPU, 1 = the
paper's sequential order); output is bit-identical at every -j.

-shard i/N executes one shard of the deterministic job index space and
writes a JSON result artifact to -shard-out FILE instead of the normal
output; "flit merge" reassembles a complete artifact set into output
byte-identical to the unsharded run. -warm-start a.json,b.json seeds the
cache from prior artifacts (no complete set required) before running;
with it, -delta-out FILE writes the run's DeltaReport (new/dropped/changed
keys vs the warmed baseline) and -delta-verify recomputes covered
evaluations to detect bit-exact divergence instead of trusting them.
-stats prints cache and bisect execution counters (plus the delta summary
when warm-started) to stderr.

-store DIR attaches a persistent on-disk run store as the cache's second
tier: in-memory misses are answered from DIR before any build happens and
fresh results are written through, so a later process pointed at the same
DIR replays covered evaluations with zero builds and no -warm-start
manifest. The store is fenced to this build's engine version; corrupt
entries read as misses and are recomputed. "flit store stats" and "flit
store gc" inspect and prune a store directory.

-remote URL attaches a run store served by "flit store serve" (the
cross-machine form of -store): engine-fenced per request, every record
SHA-256 re-validated client-side, transport faults retried with backoff
and degraded to cache misses when exhausted — a dead server never fails a
campaign. Composes with -store DIR as a local read-through/write-through
cache in front of the server; -stats adds a "remote:" traffic line.

"flit coord serve" owns a set of campaigns (each keyed by an ID derived
from engine, command, and shard count) and leases their shard indices to
"flit work -coord URL" workers over time-bounded, heartbeat-renewed
leases: a crashed or stalled worker's shard is re-leased, duplicate or
late completions are accepted idempotently (artifacts are deterministic),
and the journaled coordinator resumes every campaign exactly after a
restart with the same -dir (journals in any format but v3 are refused:
resubmit their campaigns).
"flit coord submit" registers campaigns while it runs (idempotent by
spec); workers drain one campaign, then pick up the next. "flit coord
status" renders the fleet view (or one campaign's leases with -campaign)
as a pure read — it never reclaims a lease. "flit coord gc" retires
superseded completed generations server-side. The coordinator's mux also
serves the object-store protocol, so workers share one URL for
scheduling and run write-through. SIGTERM drains both sides cleanly
(exit 0); -exit-when-done exits once every campaign's completed artifact
set validates server-side.

"flit delta" diffs two artifact sets offline (no re-running): each set is
validated like merge; "flit gc" prunes superseded artifact generations
per (engine, command, shard) slot, keeping the newest -keep of each and
never touching files listed in its -warm-start manifest.`)
}

// cliOpts carries the engine-shaping flags shared by every subcommand.
type cliOpts struct {
	j           *int
	shardStr    *string
	shardOut    *string
	stats       *bool
	warmStart   *string
	deltaOut    *string
	deltaVerify *bool
	storeDir    *string
	remoteURL   *string
	// remote is the attached Remote backend (set by attachStore when
	// -remote is given); printStats reads its transport counters.
	remote *store.Remote
}

// newFlagSet builds a subcommand flag set that reports parse errors back
// to the caller instead of exiting the process, with the shared engine
// knobs (-j, -shard, -shard-out, -stats, ...).
func newFlagSet(name string, stderr io.Writer) (*flag.FlagSet, *cliOpts) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &cliOpts{
		j:        fs.Int("j", 0, "parallel evaluations (0 = one per CPU, 1 = sequential)"),
		shardStr: fs.String("shard", "", `execute one shard "i/N" of the job index space and write an artifact`),
		shardOut: fs.String("shard-out", "", "artifact file a -shard run writes (required with -shard)"),
		stats:    fs.Bool("stats", false, "print cache and bisect execution counters to stderr"),
		warmStart: fs.String("warm-start", "",
			"comma-separated shard artifacts whose results seed the cache (no complete set required)"),
		deltaOut: fs.String("delta-out", "",
			"write the run's DeltaReport vs the -warm-start baseline to FILE (JSON)"),
		deltaVerify: fs.Bool("delta-verify", false,
			"recompute baseline-covered evaluations and report bit-exact divergence instead of trusting them"),
		storeDir: fs.String("store", "",
			"persistent run-store directory: misses consult it before building, results are written through"),
		remoteURL: fs.String("remote", "",
			"remote run-store URL (flit store serve): the cross-machine -store; composes with -store DIR as a local cache tier"),
	}
	return fs, o
}

// parseFlags parses and maps failures to errParsed (the FlagSet has
// already written the diagnostic to stderr) and -h to errHelp (usage was
// printed; the invocation succeeded).
func parseFlags(fs *flag.FlagSet, args []string) error {
	switch err := fs.Parse(args); {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		return errHelp
	default:
		return fmt.Errorf("%w: %v", errParsed, err)
	}
}

// parseFlagsOnly is parseFlags for a subcommand that takes no positional
// arguments: a stray one is an error, never silently ignored.
func parseFlagsOnly(fs *flag.FlagSet, args []string) error {
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s takes no positional arguments (got %q)", fs.Name(), fs.Args())
	}
	return nil
}

// shardMode reports whether the user asked for a shard run at all —
// including the degenerate but valid "0/1", which executes everything and
// exports a single-artifact set that `flit merge` accepts as the N=1
// partition.
func (o *cliOpts) shardMode() bool { return *o.shardStr != "" }

// engine builds the engine a subcommand runs on, honoring -j, -shard,
// -store/-remote and -warm-start. merge passes its shard set, merged into
// the cache after the store is attached (so its seeds are never written
// through) and before the -warm-start baseline.
func (o *cliOpts) engine(shardSet ...*flit.Artifact) (*experiments.Engine, error) {
	shard, err := exec.ParseShard(*o.shardStr)
	if err != nil {
		return nil, err
	}
	if o.shardMode() && *o.shardOut == "" {
		return nil, errors.New("-shard requires -shard-out FILE")
	}
	if err := o.checkDeltaFlags(); err != nil {
		return nil, err
	}
	eng := experiments.NewEngine(*o.j)
	eng.SetShard(shard)
	if err := o.attachStore(eng); err != nil {
		return nil, err
	}
	cache := eng.Cache()
	if len(shardSet) > 0 {
		if err := cache.Merge(shardSet...); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	if *o.warmStart != "" {
		// Warm starts track provenance: -stats can then summarize the
		// delta, and -delta-out can write the structured report.
		arts, err := flit.ReadArtifactFiles(strings.Split(*o.warmStart, ","))
		if err != nil {
			return nil, fmt.Errorf("-warm-start: %w", err)
		}
		if err := cache.WarmStart(*o.deltaVerify, arts...); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	return eng, nil
}

// checkDeltaFlags rejects delta-flag combinations that could not produce a
// truthful report: no baseline to delta against, or a persistent tier
// whose hits would replay what verify mode must recompute.
func (o *cliOpts) checkDeltaFlags() error {
	if (*o.deltaOut != "" || *o.deltaVerify) && *o.warmStart == "" {
		return errors.New("-delta-out/-delta-verify require -warm-start BASELINE_ARTIFACTS")
	}
	if *o.deltaVerify && *o.storeDir != "" {
		// Verify mode exists to recompute covered evaluations; a store hit
		// would replay a persisted value and report it as a recomputation.
		return errors.New("-delta-verify cannot be combined with -store (store hits would replay results instead of recomputing them)")
	}
	if *o.deltaVerify && *o.remoteURL != "" {
		// Same reason one tier further out: a remote hit is a replay too.
		return errors.New("-delta-verify cannot be combined with -remote (remote hits would replay results instead of recomputing them)")
	}
	return nil
}

// attachStore attaches the -store/-remote tiers (store.OpenTiers) to the
// engine's cache. A no-op without both.
func (o *cliOpts) attachStore(eng *experiments.Engine) error {
	s, remote, err := store.OpenTiers(*o.storeDir, *o.remoteURL, flit.EngineVersion)
	if err != nil {
		return err
	}
	o.remote = remote
	eng.AttachStore(s)
	return nil
}

// execute runs a canonical command — the one a shard artifact records and
// `flit merge` and `flit work` replay — through the shard/stats plumbing.
// Unsharded, the command writes its normal output to stdout. Sharded, the
// output is discarded — a shard's product is the artifact holding every
// build/run result it computed, written to -shard-out, with a one-line
// receipt on stdout.
func execute(eng *experiments.Engine, o *cliOpts, command []string, stdout, stderr io.Writer) error {
	out := stdout
	if o.shardMode() {
		out = io.Discard
	}
	err := experiments.RunCommand(eng, command, out)
	if *o.stats {
		o.printStats(eng, stderr)
	}
	if err != nil {
		return err
	}
	// A warm-started run's DeltaReport: its summary under -stats, the
	// report itself to -delta-out.
	if rep := eng.Cache().Delta(command); rep != nil {
		if *o.stats {
			fmt.Fprintln(stderr, rep.Summary())
		}
		if *o.deltaOut != "" {
			if err := flit.WriteDeltaReportFile(rep, *o.deltaOut); err != nil {
				return err
			}
		}
	}
	if o.shardMode() {
		art := eng.ExportArtifact(command)
		if err := flit.WriteArtifactFile(art, *o.shardOut); err != nil {
			return fmt.Errorf("writing shard artifact: %w", err)
		}
		fmt.Fprintf(stdout, "shard %s of %q: %d runs -> %s\n",
			eng.Shard(), strings.Join(command, " "), len(art.Runs), *o.shardOut)
	}
	return nil
}

func (o *cliOpts) printStats(eng *experiments.Engine, w io.Writer) {
	m := eng.CacheMetrics()
	fmt.Fprintf(w, "cache runs:  hits=%d misses=%d entries=%d\n",
		m.Runs.Hits, m.Runs.Misses, m.Runs.Entries)
	// Key-first build accounting: builds is how many executables this run
	// actually linked, skipped-builds how many plans were answered entirely
	// from the cache without ever materializing — on a fully warm-started
	// run, builds=0 and every covered cell lands in skipped-builds.
	fmt.Fprintf(w, "builds: materialized=%d skipped-builds=%d\n", m.Builds, m.SkippedBuilds)
	// Executions behind the plan-key misses: ran is how many tests actually
	// executed, shared how many built plans reused the Result of an earlier
	// run of the test that read only values the new executable shares (its
	// link.Trace projects both alike). Exact at -j 1; at -j > 1 two equal
	// projections may both run, which moves the split, not the output.
	fmt.Fprintf(w, "executions: ran=%d shared=%d\n", m.Execs.Misses, m.Execs.Hits)
	if m.Store.Enabled {
		// The persistent tier's traffic: hits are evaluations answered from
		// disk without building; errors count undecodable entries and failed
		// write-throughs (a store that is rotting or has stopped persisting).
		fmt.Fprintf(w, "store: hits=%d misses=%d puts=%d errors=%d\n",
			m.Store.Hits, m.Store.Misses, m.Store.Puts, m.Store.Errors)
	}
	if o.remote != nil {
		printRemoteStats(w, o.remote.Metrics())
	}
	// paper-execs is the Tables 2/4 cost measure and is identical at every
	// -j.
	bs := eng.BisectStats()
	fmt.Fprintf(w, "bisect: searches=%d paper-execs=%d\n", bs.Searches, bs.Execs)
}

// printRemoteStats prints a remote tier's transport counters. Retries are
// the re-sent requests the backoff loop spent, errors the degraded
// (non-honest) misses and failed uploads — a flaky or dying server shows
// up here while the run itself stays correct.
func printRemoteStats(w io.Writer, m store.RemoteMetrics) {
	fmt.Fprintf(w, "remote: hits=%d misses=%d puts=%d retries=%d errors=%d\n",
		m.Hits, m.Misses, m.Puts, m.Retries, m.Errors)
}

// cmdCommand runs run, bisect or experiments: the grammar package
// experiments declares for the command, plus the engine flags.
func cmdCommand(name string, args []string, stdout, stderr io.Writer) error {
	fs, o := newFlagSet(name, stderr)
	canonical, err := experiments.DeclareCommand(name, fs)
	if err != nil {
		return err
	}
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	command, _, err := canonical()
	if err != nil {
		return err
	}
	eng, err := o.engine()
	if err != nil {
		return err
	}
	return execute(eng, o, command, stdout, stderr)
}

// cmdMerge reassembles a complete set of shard artifacts: it validates
// that they share this build's engine version and one command and cover
// every shard index, seeds a fresh engine's cache with their union, and
// replays the recorded command — every expensive evaluation is a cache
// hit, and the output is byte-identical to an unsharded run.
func cmdMerge(args []string, stdout, stderr io.Writer) error {
	fs, o := newFlagSet("merge", stderr)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *o.shardStr != "" || *o.shardOut != "" {
		return errors.New("merge does not accept -shard/-shard-out (it replays a complete shard set)")
	}
	arts, err := flit.ReadArtifactFiles(fs.Args())
	if err != nil {
		return err
	}
	if len(arts) == 0 {
		return errors.New("merge requires at least one shard artifact file")
	}
	eng, err := o.engine(arts...)
	if err != nil {
		return err
	}
	return execute(eng, o, arts[0].Command, stdout, stderr)
}

// cmdDelta diffs two artifact sets offline: the -baseline set against the
// positional current set, each validated like a merge input (this build's
// engine version, one command, complete shard partition). Nothing is
// re-run; the report is rendered to stdout and optionally written as JSON.
func cmdDelta(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("delta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseline := fs.String("baseline", "", "comma-separated baseline artifact set (required)")
	deltaOut := fs.String("delta-out", "", "also write the DeltaReport to FILE (JSON)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *baseline == "" {
		return errors.New("delta requires -baseline a.json[,b.json...]")
	}
	base, err := flit.ReadArtifactFiles(strings.Split(*baseline, ","))
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	cur, err := flit.ReadArtifactFiles(fs.Args())
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return errors.New("delta requires at least one current artifact file")
	}
	rep, err := flit.DiffArtifacts(base, cur)
	if err != nil {
		return err
	}
	rep.Render(stdout)
	if *deltaOut == "" {
		return nil
	}
	return flit.WriteDeltaReportFile(rep, *deltaOut)
}

// cmdGc prunes superseded artifact generations from a campaign directory.
// Artifacts are grouped by (engine version, command, shard slot); the
// newest -keep files of each slot survive, files listed in -warm-start are
// never touched, and files that do not parse as artifacts are skipped.
func cmdGc(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("gc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "artifact directory to collect (required)")
	keep := fs.Int("keep", 1, "generations to keep per (engine, command, shard) slot")
	dryRun := fs.Bool("dry-run", false, "plan and report only; delete nothing")
	manifest := fs.String("warm-start", "", "comma-separated artifacts a live campaign still warm-starts from; never pruned")
	if err := parseFlagsOnly(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("gc requires -dir DIR")
	}
	protect := make(map[string]bool)
	for _, p := range strings.Split(*manifest, ",") {
		if p = strings.TrimSpace(p); p != "" {
			protect[flit.NormalizePath(p)] = true
		}
	}
	plan, err := flit.PlanGC(*dir, *keep, protect)
	if err != nil {
		return err
	}
	verb := "pruned"
	if *dryRun {
		verb = "would prune"
	}
	for _, p := range plan.Pruned {
		fmt.Fprintf(stdout, "%s %s\n", verb, p)
	}
	for _, p := range plan.Protected {
		fmt.Fprintf(stdout, "protected %s\n", p)
	}
	for _, p := range plan.Skipped {
		fmt.Fprintf(stdout, "skipped %s (not a valid artifact of this engine)\n", p)
	}
	fmt.Fprintf(stdout, "gc: kept=%d %s=%d protected=%d skipped=%d\n",
		len(plan.Kept), strings.ReplaceAll(verb, " ", "-"), len(plan.Pruned), len(plan.Protected), len(plan.Skipped))
	if *dryRun {
		return nil
	}
	return plan.Apply()
}

// cmdStore inspects, maintains, and serves a persistent run-store
// directory: "stats" scans it and reports entry count, bytes, and
// corruption; "gc" compacts it, dropping damaged records first, then the
// oldest entries, down to -max-entries/-max-bytes; "serve" exposes it
// over HTTP for
// -remote clients. All open the store with this build's engine fence, so
// a foreign store is rejected rather than misreported.
func cmdStore(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errors.New(`store requires a subcommand: "stats", "gc", or "serve"`)
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "serve":
		return cmdStoreServe(rest, stdout, stderr)
	case "stats":
		fs := flag.NewFlagSet("store stats", flag.ContinueOnError)
		fs.SetOutput(stderr)
		dir := fs.String("store", "", "run-store directory (required)")
		if err := parseFlagsOnly(fs, rest); err != nil {
			return err
		}
		d, err := openStoreDir(fs.Name(), *dir)
		if err != nil {
			return err
		}
		st, err := d.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "store %s: engine=%s entries=%d bytes=%d corrupt=%d\n",
			d.Dir(), st.Engine, st.Entries, st.Bytes, st.Corrupt)
		return nil
	case "gc":
		fs := flag.NewFlagSet("store gc", flag.ContinueOnError)
		fs.SetOutput(stderr)
		dir := fs.String("store", "", "run-store directory (required)")
		maxEntries := fs.Int("max-entries", 0, "keep at most N entries, oldest pruned first (0 = unlimited)")
		maxBytes := fs.Int64("max-bytes", 0, "keep at most N record bytes (0 = unlimited)")
		dryRun := fs.Bool("dry-run", false, "plan and report only; delete nothing")
		if err := parseFlagsOnly(fs, rest); err != nil {
			return err
		}
		if *maxEntries < 0 || *maxBytes < 0 {
			return errors.New("store gc: -max-entries and -max-bytes must be >= 0 (0 = unlimited)")
		}
		d, err := openStoreDir(fs.Name(), *dir)
		if err != nil {
			return err
		}
		res, err := d.GC(*maxEntries, *maxBytes, !*dryRun)
		if err != nil {
			return err
		}
		verb := "pruned"
		if *dryRun {
			verb = "would prune"
		}
		for _, p := range res.Pruned {
			fmt.Fprintf(stdout, "%s %s\n", verb, p)
		}
		fmt.Fprintf(stdout, "store gc: kept=%d %s=%d (%d bytes, %d corrupt)\n",
			res.Kept, strings.ReplaceAll(verb, " ", "-"), len(res.Pruned), res.PrunedBytes, res.Corrupt)
		return nil
	default:
		return fmt.Errorf(`unknown store subcommand %q (want "stats", "gc", or "serve")`, sub)
	}
}

// openStoreDir opens the run store at dir for store stats and store gc.
// They inspect a store and never create one, so a directory without the
// store's manifest (store.json) is an error naming it.
func openStoreDir(cmd, dir string) (*store.Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("%s requires -store DIR", cmd)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.json")); err != nil {
		return nil, fmt.Errorf("%s: %s holds no run store: %w", cmd, dir, err)
	}
	return store.Open(dir, flit.EngineVersion)
}

// cmdStoreServe exposes a Disk store over HTTP — the serving side of
// -remote. The store is opened with this build's engine fence (so a
// foreign directory is rejected before it can serve anything), the bound
// address is announced on stdout as a full URL (use -addr with port 0 to
// let the OS pick — scripts read the URL off the first line), and the
// process serves until killed. Writes append to the served Disk handle's
// own segment; a PUT of a key the store already holds is a no-op.
func cmdStoreServe(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("store serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "Disk store directory to serve (required; created if absent)")
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks a free port)")
	if err := parseFlagsOnly(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("store serve requires -dir DIR")
	}
	d, err := store.Open(*dir, flit.EngineVersion)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("store serve: %w", err)
	}
	fmt.Fprintf(stdout, "serving %s (engine %s) on http://%s\n", d.Dir(), d.Engine(), ln.Addr())
	return serveGracefully(store.Handler(d), ln, nil, stdout)
}
