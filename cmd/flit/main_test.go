package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/comp"
	"repro/internal/experiments"
	"repro/internal/flit"
)

func TestParseCompilation(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    comp.Compilation
		wantErr bool
	}{
		{
			name: "compiler and level",
			in:   "g++ -O2",
			want: comp.Compilation{Compiler: "g++", OptLevel: "-O2"},
		},
		{
			name: "single switch",
			in:   "g++ -O3 -mavx2",
			want: comp.Compilation{Compiler: "g++", OptLevel: "-O3", Switches: "-mavx2"},
		},
		{
			name: "multiple switches joined",
			in:   "icpc -O2 -fp-model fast=2",
			want: comp.Compilation{Compiler: "icpc", OptLevel: "-O2", Switches: "-fp-model fast=2"},
		},
		{
			name: "extra whitespace",
			in:   "  clang++   -O1  ",
			want: comp.Compilation{Compiler: "clang++", OptLevel: "-O1"},
		},
		{name: "empty", in: "", wantErr: true},
		{name: "only compiler", in: "g++", wantErr: true},
		{name: "only whitespace", in: "   ", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := experiments.ParseCompilation(tt.in)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("experiments.ParseCompilation(%q) = %v, want error", tt.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("experiments.ParseCompilation(%q): %v", tt.in, err)
			}
			if got != tt.want {
				t.Errorf("experiments.ParseCompilation(%q) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}

func TestRunUsageExit(t *testing.T) {
	tests := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring expected on stderr
	}{
		{name: "no arguments", args: nil, wantCode: 2, wantErr: "usage:"},
		{name: "unknown subcommand", args: []string{"frobnicate"}, wantCode: 2, wantErr: "usage:"},
		{name: "bisect without flags", args: []string{"bisect"}, wantCode: 1,
			wantErr: "bisect requires -test and -comp"},
		{name: "bisect missing comp", args: []string{"bisect", "-test", "Example13"}, wantCode: 1,
			wantErr: "bisect requires -test and -comp"},
		{name: "bisect malformed compilation", args: []string{"bisect", "-test", "Example13", "-comp", "g++"},
			wantCode: 1, wantErr: "want 'compiler -Olevel"},
		{name: "run with unknown flag", args: []string{"run", "-bogus"}, wantCode: 2,
			wantErr: "flag provided but not defined"},
		{name: "bisect with bad j value", args: []string{"bisect", "-j", "x"}, wantCode: 2,
			wantErr: "invalid value"},
		{name: "experiments unknown name", args: []string{"experiments", "no-such-table"}, wantCode: 1,
			wantErr: `unknown experiment "no-such-table"`},
		{name: "run unknown test", args: []string{"run", "-test", "NoSuch"}, wantCode: 1,
			wantErr: `unknown test "NoSuch"`},
		{name: "experiments misspelt after a valid name", args: []string{"experiments", "table3", "tabel4"},
			wantCode: 1, wantErr: `unknown experiment "tabel4"`},
		{name: "experiments all beside another name", args: []string{"experiments", "all", "table1"},
			wantCode: 1, wantErr: `unknown experiment "all"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tt.args, &stdout, &stderr)
			if code != tt.wantCode {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tt.args, code, tt.wantCode, stderr.String())
			}
			if !strings.Contains(stderr.String(), tt.wantErr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tt.wantErr)
			}
			// Every usage error is caught before any output is written.
			if stdout.Len() != 0 {
				t.Errorf("run(%v) printed before failing: %q", tt.args, stdout.String())
			}
			// Flag-parse diagnostics come from the FlagSet itself and must
			// not be echoed a second time by the dispatcher.
			if n := strings.Count(stderr.String(), tt.wantErr); n > 1 {
				t.Errorf("diagnostic %q printed %d times", tt.wantErr, n)
			}
		})
	}
}

// TestStrayPositionalArgumentsRejected: every subcommand refuses a stray
// positional argument before doing any work, even behind otherwise
// complete flags. Those that take no positional arguments say so; `coord
// serve` and `coord submit` read theirs as the campaign command, so the
// command grammar rejects the stray word.
func TestStrayPositionalArgumentsRejected(t *testing.T) {
	const noPositional = `takes no positional arguments (got ["stray"])`
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"run", "-test", "Example05", "stray"}, noPositional},
		{[]string{"bisect", "-test", "Example13", "-comp", "g++ -O3 -mavx2 -mfma", "stray"}, noPositional},
		{[]string{"gc", "-dir", "d", "stray"}, noPositional},
		{[]string{"store", "stats", "-store", "d", "stray"}, noPositional},
		{[]string{"store", "gc", "-store", "d", "stray"}, noPositional},
		{[]string{"store", "serve", "-dir", "d", "stray"}, noPositional},
		{[]string{"coord", "serve", "-dir", "d", "stray"}, `unknown command "stray"`},
		{[]string{"coord", "status", "-coord", "http://127.0.0.1:1", "stray"}, noPositional},
		{[]string{"coord", "submit", "-coord", "http://127.0.0.1:1", "-shards", "1", "experiments", "table3", "stray"},
			`unknown experiment "stray"`},
		{[]string{"coord", "gc", "-coord", "http://127.0.0.1:1", "stray"}, noPositional},
		{[]string{"work", "-coord", "http://127.0.0.1:1", "stray"}, noPositional},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%q: exit %d, want 1 (stderr: %s)", tc.args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q does not reject the stray argument with %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: did work before rejecting: %q", tc.args, stdout.String())
		}
	}
}

// TestHelpExitsZero: an explicit -h prints usage and succeeds, matching
// the conventional contract scripts rely on.
func TestHelpExitsZero(t *testing.T) {
	for _, sub := range []string{"run", "bisect", "experiments"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{sub, "-h"}, &stdout, &stderr); code != 0 {
			t.Errorf("%s -h: exit %d, want 0", sub, code)
		}
		if !strings.Contains(stderr.String(), "-j int") {
			t.Errorf("%s -h: usage not printed: %q", sub, stderr.String())
		}
	}
}

// TestExperimentsSubcommand drives a cheap experiment end to end through
// the real dispatcher, including the -j flag.
func TestExperimentsSubcommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"experiments", "-j", "2", "table3"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"=== table3 ===", "source files", "total functions"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestBisectSubcommandUnknownTest validates the test-name check behind
// fully-formed flags.
func TestBisectSubcommandUnknownTest(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"bisect", "-test", "Example99", "-comp", "g++ -O3"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `unknown test "Example99"`) {
		t.Errorf("stderr: %s", stderr.String())
	}
}

// TestBisectSubcommandEndToEnd root-causes Example13 under an FMA-enabling
// compilation — Finding 2's blame must appear on stdout.
func TestBisectSubcommandEndToEnd(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"bisect", "-j", "4", "-test", "Example13", "-comp", "g++ -O3 -mavx2 -mfma"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "executions:") {
		t.Errorf("missing execution count:\n%s", out)
	}
	if !strings.Contains(out, "AddMult_a_AAt") {
		t.Errorf("Finding 2 blame (AddMult_a_AAt) not reported:\n%s", out)
	}
}

// TestMergeShardedExperimentsEquivalence drives the full distributed
// protocol through the real CLI: two `experiments -shard i/2` invocations
// writing artifacts, then `merge` replaying them — stdout must be
// byte-identical to the unsharded invocation. table4 exercises the Laghos
// bisect fan-out (cheap but non-trivial: 12 row configurations, shared
// cached executions across comparison regimes).
func TestMergeShardedExperimentsEquivalence(t *testing.T) {
	dir := t.TempDir()
	var want, stderr bytes.Buffer
	if code := run([]string{"experiments", "-j", "2", "table4"}, &want, &stderr); code != 0 {
		t.Fatalf("unsharded run: exit %d, stderr: %s", code, stderr.String())
	}
	paths := []string{filepath.Join(dir, "s0.json"), filepath.Join(dir, "s1.json")}
	for i, p := range paths {
		var stdout bytes.Buffer
		stderr.Reset()
		code := run([]string{"experiments", "-j", "2",
			"-shard", fmt.Sprintf("%d/2", i), "-shard-out", p, "table4"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("shard %d: exit %d, stderr: %s", i, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "shard "+fmt.Sprintf("%d/2", i)) {
			t.Errorf("shard %d printed no receipt: %q", i, stdout.String())
		}
		if strings.Contains(stdout.String(), "baseline") {
			t.Errorf("shard %d leaked table output to stdout: %q", i, stdout.String())
		}
	}
	var got bytes.Buffer
	stderr.Reset()
	if code := run(append([]string{"merge", "-stats"}, paths...), &got, &stderr); code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, stderr.String())
	}
	if got.String() != want.String() {
		t.Errorf("merged output differs from unsharded run:\n--- merged ---\n%s\n--- unsharded ---\n%s",
			got.String(), want.String())
	}
	// -stats reports the replay's cache behavior on stderr; a correct merge
	// answers every run from the artifacts, so the "cache runs:" line
	// reads misses=0.
	runsLine := ""
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "cache runs:") {
			runsLine = line
		}
	}
	if runsLine == "" || !strings.Contains(runsLine, "misses=0") {
		t.Errorf("merge -stats run cache reports recomputation:\n%s", stderr.String())
	}
}

// TestMergeRejectsBadShardSets: the CLI must refuse incomplete sets and
// foreign engine versions with a non-zero exit.
func TestMergeRejectsBadShardSets(t *testing.T) {
	dir := t.TempDir()
	p0 := filepath.Join(dir, "s0.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"experiments", "-shard", "0/2", "-shard-out", p0, "table4"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("shard run failed: %s", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"merge", p0}, &stdout, &stderr); code != 1 {
		t.Errorf("merging 1 of 2 shards: exit %d, want 1 (stderr: %s)", code, stderr.String())
	}

	// Corrupt the engine version and present a "complete" single-shard set.
	raw, err := os.ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	foreign := strings.Replace(string(raw), `"engine": "flit-engine/`, `"engine": "flit-engine/0-foreign`, 1)
	if foreign == string(raw) {
		t.Fatal("test could not rewrite the engine version")
	}
	foreign = strings.Replace(foreign, `"count": 2`, `"count": 1`, 1)
	if !strings.Contains(foreign, `"count": 1`) {
		t.Fatal("test could not rewrite the shard count")
	}
	pf := filepath.Join(dir, "foreign.json")
	if err := os.WriteFile(pf, []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"merge", pf}, &stdout, &stderr); code != 1 {
		t.Errorf("merging foreign engine version: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "engine") {
		t.Errorf("rejection does not name the engine version: %s", stderr.String())
	}

	stderr.Reset()
	if code := run([]string{"merge"}, &stdout, &stderr); code != 1 {
		t.Errorf("merge with no artifacts: exit %d, want 1", code)
	}
}

// TestShardRequiresShardOut: a -shard run without -shard-out would compute
// and then discard a shard's work; the CLI refuses up front.
func TestShardRequiresShardOut(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-shard", "0/2"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-shard-out") {
		t.Errorf("stderr: %s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"run", "-shard", "2/2", "-shard-out", "x.json"}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad shard index: exit %d, want 1", code)
	}
}

// TestShardZeroOfOneExportsArtifact: "0/1" is the valid degenerate shard
// set — it must write an artifact (not silently fall back to a plain run)
// and merge back byte-identically.
func TestShardZeroOfOneExportsArtifact(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "s.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-shard", "0/1", "-shard-out", p, "table3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("0/1 run wrote no artifact: %v", err)
	}
	if strings.Contains(stdout.String(), "=== table3 ===") {
		t.Error("0/1 shard leaked normal output to stdout")
	}
	var want, got bytes.Buffer
	if code := run([]string{"experiments", "table3"}, &want, &stderr); code != 0 {
		t.Fatal(stderr.String())
	}
	if code := run([]string{"merge", p}, &got, &stderr); code != 0 {
		t.Fatalf("merge of single artifact: exit %d, stderr: %s", code, stderr.String())
	}
	if got.String() != want.String() {
		t.Error("merged 0/1 output differs from plain run")
	}
}

// TestWarmStartSeedsEngineCache drives the -warm-start flag end to end: a
// 0/1 shard artifact (the complete result set) warm-starts a fresh
// invocation, which must answer every evaluation from the cache (stderr
// misses=0) and print output byte-identical to a cold run.
func TestWarmStartSeedsEngineCache(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "warm.json")
	var want, stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-j", "2", "table4"}, &want, &stderr); code != 0 {
		t.Fatalf("cold run: exit %d, stderr: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"experiments", "-shard", "0/1", "-shard-out", art, "table4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("artifact export: exit %d, stderr: %s", code, stderr.String())
	}
	var got bytes.Buffer
	stderr.Reset()
	if code := run([]string{"experiments", "-j", "2", "-warm-start", art, "-stats", "table4"}, &got, &stderr); code != 0 {
		t.Fatalf("warm run: exit %d, stderr: %s", code, stderr.String())
	}
	if got.String() != want.String() {
		t.Errorf("warm-started output differs from cold run:\n--- warm ---\n%s\n--- cold ---\n%s",
			got.String(), want.String())
	}
	runsLine := ""
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "cache runs:") {
			runsLine = line
		}
	}
	if runsLine == "" || !strings.Contains(runsLine, "misses=0") {
		t.Errorf("warm-started run recomputed evaluations:\n%s", stderr.String())
	}

	// A missing artifact fails up front with a diagnostic naming the flag.
	stderr.Reset()
	if code := run([]string{"experiments", "-warm-start", filepath.Join(dir, "nope.json"), "table3"},
		&stdout, &stderr); code != 1 {
		t.Fatalf("missing warm-start artifact: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "warm-start") {
		t.Errorf("stderr does not name -warm-start: %s", stderr.String())
	}
}

// TestDeltaOutOnWarmStartedRun: -delta-out on a warm-started subcommand
// writes the structured report, -stats prints its summary, and an
// identical-command re-run is an empty delta.
func TestDeltaOutOnWarmStartedRun(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-shard", "0/1", "-shard-out", base, "table4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline export: %s", stderr.String())
	}
	repPath := filepath.Join(dir, "delta.json")
	stderr.Reset()
	code := run([]string{"experiments", "-warm-start", base, "-delta-out", repPath, "-stats", "table4"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("warm run: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "delta: new=0 dropped=0 changed=0") {
		t.Errorf("-stats missing empty delta summary: %s", stderr.String())
	}
	raw, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatalf("-delta-out wrote nothing: %v", err)
	}
	for _, want := range []string{`"engine"`, `"unchanged"`, `"baseline_hits"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("delta report missing %s:\n%s", want, raw)
		}
	}

	// -delta-verify recomputes and must also find nothing on a
	// deterministic engine.
	stderr.Reset()
	code = run([]string{"experiments", "-warm-start", base, "-delta-verify", "-stats", "table4"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("verify run: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "delta: new=0 dropped=0 changed=0") ||
		!strings.Contains(stderr.String(), "baseline-hits=0") {
		t.Errorf("verify-mode summary wrong: %s", stderr.String())
	}

	// Delta flags without a baseline are a usage bug, caught up front.
	stderr.Reset()
	if code := run([]string{"experiments", "-delta-out", repPath, "table3"}, &stdout, &stderr); code != 1 {
		t.Fatalf("-delta-out without -warm-start: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-warm-start") {
		t.Errorf("stderr: %s", stderr.String())
	}
}

// TestMergeWarmStartDeltaComparesBits: on the merge path the shard set
// seeds the cache before the -warm-start baseline, so a baseline hit is
// served the *current* generation's bits — a drifted value must surface
// as changed, not be trusted as a baseline hit. (Regression: the seeded
// branch once counted uses>0 as unchanged without comparing.)
func TestMergeWarmStartDeltaComparesBits(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "cur.json")
	old := filepath.Join(dir, "old.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"experiments", "-shard", "0/1", "-shard-out", cur, "table4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("export: %s", stderr.String())
	}
	// Yesterday's baseline: same artifact with one value bit drifted.
	raw, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`"vec": \[\s*(\d+)`)
	m := re.FindSubmatch(raw)
	if m == nil {
		t.Fatal("no vec record to perturb")
	}
	flipped := append([]byte(nil), m[1]...)
	if flipped[len(flipped)-1] == '0' {
		flipped[len(flipped)-1] = '1'
	} else {
		flipped[len(flipped)-1] = '0'
	}
	if err := os.WriteFile(old, bytes.Replace(raw, m[1], flipped, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"merge", "-warm-start", old, "-stats", cur}, &stdout, &stderr); code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "changed=1") {
		t.Errorf("drifted baseline value not reported on the merge path:\n%s", stderr.String())
	}
}

// contradiction is a real 2-shard `experiments table1` set (the shards
// share the baseline cells) plus a copy of shard 1, runBad, that
// re-records one shared run key with other bits. The key is quoted as the
// diagnostics quote it.
type contradiction struct {
	s0, s1, runBad string
	runKey         string
}

func contradictingShards(t *testing.T) contradiction {
	t.Helper()
	dir := t.TempDir()
	c := contradiction{s0: filepath.Join(dir, "s0.json"), s1: filepath.Join(dir, "s1.json"),
		runBad: filepath.Join(dir, "s1-run.json")}
	for i, p := range []string{c.s0, c.s1} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"experiments", "-j", "2", "-shard", fmt.Sprintf("%d/2", i), "-shard-out", p, "table1"},
			&stdout, &stderr); code != 0 {
			t.Fatalf("shard %d: exit %d, stderr: %s", i, code, stderr.String())
		}
	}
	a0, err := flit.ReadArtifactFile(c.s0)
	if err != nil {
		t.Fatal(err)
	}
	shared := map[string]bool{}
	for _, r := range a0.Runs {
		shared[r.Key] = true
	}
	runBad, err := flit.ReadArtifactFile(c.s1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range runBad.Runs {
		if r := &runBad.Runs[i]; shared[r.Key] && c.runKey == "" {
			if len(r.Vec) > 0 {
				r.Vec[0] ^= 1
			} else if r.IsVec {
				continue // an empty vector has no bits to flip
			} else {
				r.Scalar ^= 1
			}
			c.runKey = strconv.Quote(r.Key)
		}
	}
	if c.runKey == "" {
		t.Fatal("the table1 shards share no run key to contradict")
	}
	if err := flit.WriteArtifactFile(runBad, c.runBad); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShardSetContradictionsRefused: a shard set recording one run key
// with two bit patterns is refused by every path that folds a set —
// merge, -warm-start and delta — each naming the key, while the healthy
// set still merges.
func TestShardSetContradictionsRefused(t *testing.T) {
	c := contradictingShards(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"merge", c.s0, c.s1}, &stdout, &stderr); code != 0 {
		t.Fatalf("healthy set: merge exit %d, stderr: %s", code, stderr.String())
	}
	for name, args := range map[string][]string{
		"merge":          {"merge", c.s0, c.runBad},
		"warm-start":     {"experiments", "-warm-start", c.s0 + "," + c.runBad, "table3"},
		"delta baseline": {"delta", "-baseline", c.s0 + "," + c.runBad, c.s0, c.s1},
		"delta current":  {"delta", "-baseline", c.s0 + "," + c.s1, c.s0, c.runBad},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), c.runKey) {
			t.Errorf("%s over a set disagreeing on a run key: exit %d, want 1 naming %s; stderr: %.300s",
				name, code, c.runKey, stderr.String())
		}
	}
}

// TestDeltaSubcommandOffline drives `flit delta` end to end: identical
// artifact sets diff empty; a bit-perturbed record is reported as exactly
// one changed key; bad usage errors.
func TestDeltaSubcommandOffline(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	var stdout, stderr bytes.Buffer
	for _, p := range []string{a, b} {
		if code := run([]string{"experiments", "-shard", "0/1", "-shard-out", p, "table4"}, &stdout, &stderr); code != 0 {
			t.Fatalf("export %s: %s", p, stderr.String())
		}
	}
	stdout.Reset()
	if code := run([]string{"delta", "-baseline", a, b}, &stdout, &stderr); code != 0 {
		t.Fatalf("delta: exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "delta: new=0 dropped=0 changed=0") {
		t.Errorf("same-command artifact sets not empty:\n%s", stdout.String())
	}

	// Perturb one recorded bit in b and diff again.
	raw, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`"vec": \[\s*(\d+)`)
	m := re.FindSubmatch(raw)
	if m == nil {
		t.Fatal("no vec record to perturb")
	}
	// Flip the last digit in place so the value stays a valid uint64.
	flipped := append([]byte(nil), m[1]...)
	if flipped[len(flipped)-1] == '0' {
		flipped[len(flipped)-1] = '1'
	} else {
		flipped[len(flipped)-1] = '0'
	}
	bumped := bytes.Replace(raw, m[1], flipped, 1)
	if err := os.WriteFile(b, bumped, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"delta", "-baseline", a, b}, &stdout, &stderr); code != 0 {
		t.Fatalf("delta after perturbation: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "changed=1") || !strings.Contains(stdout.String(), "changed  ") {
		t.Errorf("perturbed bit not reported:\n%s", stdout.String())
	}

	stderr.Reset()
	if code := run([]string{"delta", a}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "-baseline") {
		t.Errorf("delta without -baseline: exit %d, stderr %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"delta", "-baseline", a}, &stdout, &stderr); code != 1 {
		t.Errorf("delta without current set: exit %d", code)
	}
}

// TestGcSubcommand: superseded generations of one campaign slot are
// pruned oldest-first, -dry-run deletes nothing, and the -warm-start
// manifest protects its files.
func TestGcSubcommand(t *testing.T) {
	dir := t.TempDir()
	// The older generation sorts last by path, so only the mtime can order
	// it first.
	old := filepath.Join(dir, "gen2.json")
	newer := filepath.Join(dir, "gen1.json")
	var stdout, stderr bytes.Buffer
	for _, p := range []string{old, newer} {
		if code := run([]string{"experiments", "-shard", "0/1", "-shard-out", p, "table4"}, &stdout, &stderr); code != 0 {
			t.Fatalf("export %s: %s", p, stderr.String())
		}
	}
	past := time.Now().Add(-time.Hour)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	if code := run([]string{"gc", "-dir", dir, "-keep", "1", "-dry-run"}, &stdout, &stderr); code != 0 {
		t.Fatalf("gc -dry-run: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "would prune "+old) {
		t.Errorf("dry run plan wrong:\n%s", stdout.String())
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("-dry-run deleted a file: %v", err)
	}

	stdout.Reset()
	if code := run([]string{"gc", "-dir", dir, "-keep", "1", "-warm-start", old}, &stdout, &stderr); code != 0 {
		t.Fatalf("gc with manifest: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "protected "+old) {
		t.Errorf("manifest file not protected:\n%s", stdout.String())
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("protected file pruned: %v", err)
	}

	stdout.Reset()
	if code := run([]string{"gc", "-dir", dir, "-keep", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("gc: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "pruned "+old) || !strings.Contains(stdout.String(), "kept=1") {
		t.Errorf("gc output wrong:\n%s", stdout.String())
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Error("superseded generation survived gc")
	}
	if _, err := os.Stat(newer); err != nil {
		t.Errorf("newest generation pruned: %v", err)
	}

	stderr.Reset()
	if code := run([]string{"gc", "-keep", "1"}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "-dir") {
		t.Errorf("gc without -dir: exit %d, stderr %s", code, stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"gc", "-dir", dir, "-keep", "0"}, &stdout, &stderr); code != 1 {
		t.Errorf("gc -keep 0: exit %d, want 1", code)
	}
}

// TestShardArtifactsAreByteDeterministic: two runs of the same shard of
// the same command write the same bytes — an artifact carries no
// timestamp, so whole files compare.
func TestShardArtifactsAreByteDeterministic(t *testing.T) {
	dir := t.TempDir()
	var files [2][]byte
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("run%d.json", i))
		var stdout, stderr bytes.Buffer
		if code := run([]string{"experiments", "-j", "1", "-shard", "0/1", "-shard-out", path, "table3"},
			&stdout, &stderr); code != 0 {
			t.Fatalf("run %d: exit %d: %s", i, code, stderr.String())
		}
		var err error
		if files[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Let the wall clock pass a second boundary between the runs.
			time.Sleep(1100 * time.Millisecond)
		}
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two runs wrote different artifacts:\n%s\n---\n%s", files[0], files[1])
	}
}

// TestBisectStatsOnStderr: -stats surfaces the bisect counters — the
// number of searches and the paper's deterministic execution count — after
// a bisect subcommand, on a line of its own.
func TestBisectStatsOnStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"bisect", "-j", "4", "-stats", "-test", "Example13",
		"-comp", "g++ -O3 -mavx2 -mfma"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !regexp.MustCompile(`(?m)^bisect: searches=1 paper-execs=[1-9][0-9]*$`).MatchString(stderr.String()) {
		t.Errorf("-stats missing bisect counters: %s", stderr.String())
	}
}
