package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/flit"
)

// startCoordServe launches `flit coord serve` for a 2-shard
// `experiments table4` campaign on a free loopback port and returns its
// announced URL — read off stdout exactly as scripts do. extra flags go
// before the trailing command.
func startCoordServe(t *testing.T, dir string, extra ...string) string {
	t.Helper()
	out := &syncBuffer{}
	args := append([]string{"coord", "serve", "-dir", dir, "-addr", "127.0.0.1:0", "-shards", "2"}, extra...)
	go run(append(args, "experiments", "table4"), out, out)
	return announcedURL(t, out)
}

// announcedURL waits for a server started on out to announce its URL.
func announcedURL(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "on http://") {
			line := s[strings.Index(s, "on http://")+len("on "):]
			return strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never announced a URL: %q", out.String())
	return ""
}

// TestBisectCampaignEndToEnd: a bisect campaign's -comp value contains
// spaces and must reach the workers as one argument. A 2-shard campaign
// drains with no failed attempt, and merging its artifacts prints exactly
// the bytes `flit bisect` prints for the same arguments.
func TestBisectCampaignEndToEnd(t *testing.T) {
	bisect := []string{"bisect", "-test", "Example13", "-comp", "g++ -O3 -mavx2 -mfma"}
	var want, stderr bytes.Buffer
	if code := run(append([]string{"bisect", "-j", "2"}, bisect[1:]...), &want, &stderr); code != 0 {
		t.Fatalf("flit bisect: exit %d, stderr: %s", code, stderr.String())
	}

	dir := t.TempDir()
	out := &syncBuffer{}
	codec := make(chan int, 1)
	go func() {
		codec <- run(append([]string{"coord", "serve", "-dir", dir, "-addr", "127.0.0.1:0",
			"-shards", "2", "-exit-when-done"}, bisect...), out, out)
	}()
	url := announcedURL(t, out)
	var wout bytes.Buffer
	if code := run([]string{"work", "-coord", url, "-j", "2", "-stats"}, &wout, &wout); code != 0 {
		t.Fatalf("worker: exit %d: %s\ncoord output: %s", code, wout.String(), out.String())
	}
	if !strings.Contains(wout.String(), "coord: completed=2 lost=0 failed=0") {
		t.Errorf("worker did not complete both shards without a failed attempt: %s", wout.String())
	}
	select {
	case code := <-codec:
		if code != 0 {
			t.Fatalf("coord serve exited %d: %s", code, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("coord serve did not exit after the campaign completed: %s", out.String())
	}
	if want := `-comp \"g++ -O3 -mavx2 -mfma\" -k 0`; !strings.Contains(out.String(), want) {
		t.Errorf("coordinator does not print the campaign as the CLI accepts it (%s): %s", want, out.String())
	}

	arts, err := filepath.Glob(filepath.Join(dir, "artifacts", "*", "shard-*.json"))
	if err != nil || len(arts) != 2 {
		t.Fatalf("campaign artifacts = %v (err %v), want 2 files", arts, err)
	}
	var got bytes.Buffer
	stderr.Reset()
	if code := run(append([]string{"merge"}, arts...), &got, &stderr); code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, stderr.String())
	}
	if got.String() != want.String() {
		t.Errorf("merged bisect campaign differs from flit bisect:\n--- merged ---\n%s\n--- flit bisect ---\n%s",
			got.String(), want.String())
	}
}

// TestCoordSubmitRejectsBadCommands: a misspelt experiment, an unknown
// test and a malformed compilation are refused, naming what is wrong,
// before anything reaches the coordinator.
func TestCoordSubmitRejectsBadCommands(t *testing.T) {
	url := startCoordServe(t, t.TempDir())
	for _, tc := range []struct {
		command []string
		want    string
	}{
		{[]string{"experiments", "tabel4"}, `unknown experiment "tabel4"`},
		{[]string{"bisect", "-test", "Example99", "-comp", "g++ -O3"}, `unknown test "Example99"`},
		{[]string{"bisect", "-test", "Example13", "-comp", "g++"}, `compilation "g++"`},
		{[]string{"experiments", "all", "table1"}, `unknown experiment "all"`},
		{[]string{"merge", "s0.json"}, `unknown command "merge"`},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"coord", "submit", "-coord", url, "-shards", "2"}, tc.command...)
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%q: exit %d, want 1", tc.command, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: stderr %q does not contain %q", tc.command, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q", tc.command, stdout.String())
		}
	}
	var fleet, stderr bytes.Buffer
	if code := run([]string{"coord", "status", "-coord", url}, &fleet, &stderr); code != 0 {
		t.Fatalf("status: exit %d: %s", code, stderr.String())
	}
	if n := strings.Count(fleet.String(), "campaign c"); n != 1 {
		t.Errorf("fleet view lists %d campaigns, want only the one served at boot: %s", n, fleet.String())
	}
}

// TestWorkCampaignEndToEnd drives the whole distributed protocol through
// the CLI entry points in-process: one coordinator, two concurrent
// workers, then `flit merge` over the completed artifact set — stdout
// byte-identical to the unsharded invocation.
func TestWorkCampaignEndToEnd(t *testing.T) {
	dir := t.TempDir()
	url := startCoordServe(t, dir)

	var want, stderr bytes.Buffer
	if code := run([]string{"experiments", "-j", "2", "table4"}, &want, &stderr); code != 0 {
		t.Fatalf("unsharded run: exit %d, stderr: %s", code, stderr.String())
	}

	var wg sync.WaitGroup
	codes := make([]int, 2)
	outs := make([]syncBuffer, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			codes[w] = run([]string{"work", "-coord", url, "-j", "2", "-stats",
				"-name", fmt.Sprintf("w%d", w)}, &outs[w], &outs[w])
		}(w)
	}
	wg.Wait()
	completed := 0
	for w := 0; w < 2; w++ {
		if codes[w] != 0 {
			t.Fatalf("worker %d: exit %d: %s", w, codes[w], outs[w].String())
		}
		if !strings.Contains(outs[w].String(), "campaigns terminal") {
			t.Errorf("worker %d did not report campaigns terminal: %s", w, outs[w].String())
		}
		if !strings.Contains(outs[w].String(), "remote: hits=") {
			t.Errorf("worker %d -stats missing the remote traffic line: %s", w, outs[w].String())
		}
		var n int
		if _, err := fmt.Sscanf(afterToken(outs[w].String(), "campaigns terminal ("), "%d", &n); err == nil {
			completed += n
		}
	}
	if completed != 2 {
		t.Errorf("workers completed %d shards between them, want 2", completed)
	}

	arts, err := filepath.Glob(filepath.Join(dir, "artifacts", "*", "shard-*.json"))
	if err != nil || len(arts) != 2 {
		t.Fatalf("campaign artifacts = %v (err %v), want 2 files", arts, err)
	}
	var got bytes.Buffer
	stderr.Reset()
	if code := run(append([]string{"merge", "-j", "2"}, arts...), &got, &stderr); code != 0 {
		t.Fatalf("merge: exit %d, stderr: %s", code, stderr.String())
	}
	if got.String() != want.String() {
		t.Errorf("merged campaign output differs from unsharded run:\n--- merged ---\n%s\n--- unsharded ---\n%s",
			got.String(), want.String())
	}
}

// afterToken returns the text following the first occurrence of token.
func afterToken(s, token string) string {
	if i := strings.Index(s, token); i >= 0 {
		return s[i+len(token):]
	}
	return ""
}

// TestCoordServeExitWhenDone: with -exit-when-done the coordinator exits
// 0 on its own once the campaign completes and validates — the clean
// scripting surface ci.sh waits on.
func TestCoordServeExitWhenDone(t *testing.T) {
	dir := t.TempDir()
	out := &syncBuffer{}
	codec := make(chan int, 1)
	go func() {
		codec <- run([]string{"coord", "serve", "-dir", dir, "-addr", "127.0.0.1:0",
			"-shards", "2", "-exit-when-done", "experiments", "table4"}, out, out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	url := ""
	for url == "" && time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "on http://") {
			line := s[strings.Index(s, "on http://")+len("on "):]
			url = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		}
	}
	if url == "" {
		t.Fatalf("no URL announced: %q", out.String())
	}
	var wout bytes.Buffer
	if code := run([]string{"work", "-coord", url, "-j", "2"}, &wout, &wout); code != 0 {
		t.Fatalf("worker: exit %d: %s\ncoord output: %s", code, wout.String(), out.String())
	}
	select {
	case code := <-codec:
		if code != 0 {
			t.Fatalf("coord serve exited %d: %s", code, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("coord serve did not exit after campaign completion: %s", out.String())
	}
	if !strings.Contains(out.String(), "2/2 shards complete") {
		t.Errorf("final status line missing: %s", out.String())
	}
	if !strings.Contains(out.String(), "validated") {
		t.Errorf("validation receipt missing: %s", out.String())
	}
}

// TestCoordServeResumesJournal: a second `coord serve` over the same
// directory resumes the journaled tenancy (no command needed), and a
// *different* command over the same directory is no longer a refusal —
// it joins the tenancy as a second campaign and the fleet drains it too.
func TestCoordServeResumesJournal(t *testing.T) {
	dir := t.TempDir()
	url := startCoordServe(t, dir)
	var wout bytes.Buffer
	if code := run([]string{"work", "-coord", url, "-j", "2"}, &wout, &wout); code != 0 {
		t.Fatalf("worker: exit %d: %s", code, wout.String())
	}

	// Resume with no command: adopts the journal, campaign already done.
	out := &syncBuffer{}
	codec := make(chan int, 1)
	go func() {
		codec <- run([]string{"coord", "serve", "-dir", dir, "-addr", "127.0.0.1:0",
			"-exit-when-done"}, out, out)
	}()
	select {
	case code := <-codec:
		if code != 0 {
			t.Fatalf("resumed coord serve exited %d: %s", code, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("resumed coord serve did not exit over a completed journal: %s", out.String())
	}
	if !strings.Contains(out.String(), `"experiments table4"`) {
		t.Errorf("resume did not announce the journaled command: %s", out.String())
	}

	// A different campaign over the same directory joins the tenancy.
	out2 := &syncBuffer{}
	codec2 := make(chan int, 1)
	go func() {
		codec2 <- run([]string{"coord", "serve", "-dir", dir, "-addr", "127.0.0.1:0",
			"-shards", "2", "-exit-when-done", "experiments", "table3"}, out2, out2)
	}()
	deadline := time.Now().Add(5 * time.Second)
	url2 := ""
	for url2 == "" && time.Now().Before(deadline) {
		if s := out2.String(); strings.Contains(s, "on http://") {
			line := s[strings.Index(s, "on http://")+len("on "):]
			url2 = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		}
	}
	if url2 == "" {
		t.Fatalf("second-campaign serve never announced a URL: %q", out2.String())
	}
	wout.Reset()
	if code := run([]string{"work", "-coord", url2, "-j", "2"}, &wout, &wout); code != 0 {
		t.Fatalf("worker on second campaign: exit %d: %s", code, wout.String())
	}
	select {
	case code := <-codec2:
		if code != 0 {
			t.Fatalf("two-campaign serve exited %d: %s", code, out2.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("two-campaign serve did not exit: %s", out2.String())
	}
	if got := strings.Count(out2.String(), "artifact set validated"); got != 2 {
		t.Errorf("validated %d campaigns, want 2: %s", got, out2.String())
	}
}

// TestCoordSubmitStatusGC drives the new operator subcommands against a
// live coordinator: submit is idempotent, status renders the fleet view
// and the per-campaign detail, and gc (dry-run) reports its plan.
func TestCoordSubmitStatusGC(t *testing.T) {
	dir := t.TempDir()
	url := startCoordServe(t, dir)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"coord", "submit", "-coord", url,
		"-shards", "2", "experiments", "table3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("submit: exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "submitted \"experiments table3\" as 2 shards") {
		t.Errorf("submit receipt missing: %s", stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"coord", "submit", "-coord", url,
		"-shards", "2", "experiments", "table3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("re-submit: exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "already registered") {
		t.Errorf("re-submit was not idempotent: %s", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"coord", "status", "-coord", url}, &stdout, &stderr); code != 0 {
		t.Fatalf("status: exit %d: %s", code, stderr.String())
	}
	fleet := stdout.String()
	if !strings.Contains(fleet, `"experiments table4"`) || !strings.Contains(fleet, `"experiments table3"`) {
		t.Errorf("fleet view missing a campaign: %s", fleet)
	}
	if strings.Count(fleet, "campaign c") != 2 {
		t.Errorf("fleet view rows = %d, want 2: %s", strings.Count(fleet, "campaign c"), fleet)
	}
	// Per-campaign detail: pull an ID off the fleet view.
	id := strings.TrimPrefix(strings.Fields(fleet)[1], "")
	id = strings.TrimSuffix(id, ":")
	stdout.Reset()
	if code := run([]string{"coord", "status", "-coord", url, "-campaign", id}, &stdout, &stderr); code != 0 {
		t.Fatalf("status -campaign: exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "done 0/") {
		t.Errorf("campaign detail missing progress: %s", stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"coord", "gc", "-coord", url, "-dry-run"}, &stdout, &stderr); code != 0 {
		t.Fatalf("gc -dry-run: exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "would retire 0 campaign(s), kept 2") {
		t.Errorf("gc plan unexpected: %s", stdout.String())
	}
}

// TestWorkFlagValidation: usage errors are caught before any network IO.
func TestWorkFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"work"}, &stdout, &stderr); code != 1 {
		t.Errorf("work without -coord: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "-coord") {
		t.Errorf("diagnostic does not name -coord: %s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"work", "-coord", "ftp://elsewhere"}, &stdout, &stderr); code != 1 {
		t.Errorf("bad -coord scheme: exit %d, want 1", code)
	}
	// A command and -shards travel together: one without the other is a
	// usage error (an empty pair is fine — campaigns arrive via submit).
	stderr.Reset()
	if code := run([]string{"coord", "serve", "-dir", t.TempDir(), "experiments", "table4"},
		&stdout, &stderr); code != 1 {
		t.Errorf("coord serve with a command but no -shards: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "a command and -shards together") {
		t.Errorf("diagnostic does not explain the pairing: %s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"coord", "submit", "-coord", "http://127.0.0.1:1"}, &stdout, &stderr); code != 1 {
		t.Errorf("coord submit without a command: exit %d, want 1", code)
	}
	stderr.Reset()
	if code := run([]string{"coord", "status"}, &stdout, &stderr); code != 1 {
		t.Errorf("coord status without -coord: exit %d, want 1", code)
	}
}

// TestCoordStatusRefusesContradictingShards: a campaign whose two
// completed shards record one shared run key with two bit patterns is
// complete but not validated, and coord status names the key.
func TestCoordStatusRefusesContradictingShards(t *testing.T) {
	c := contradictingShards(t)
	out := &syncBuffer{}
	go run([]string{"coord", "serve", "-dir", t.TempDir(), "-addr", "127.0.0.1:0",
		"-shards", "2", "experiments", "table1"}, out, out)
	url := announcedURL(t, out)
	cl, err := coord.NewClient(url, flit.EngineVersion, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	infos, err := cl.Campaigns(ctx)
	if err != nil || len(infos) != 1 {
		t.Fatalf("campaigns: %v %v", infos, err)
	}
	id := infos[0].ID
	for range 2 {
		g, state, err := cl.Lease(ctx, id, "w")
		if err != nil || state != coord.Granted {
			t.Fatalf("lease: %v %v", state, err)
		}
		path := map[int]string{0: c.s0, 1: c.runBad}[g.Shard]
		art, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Complete(ctx, id, "w", g.LeaseID, g.Shard, art); err != nil {
			t.Fatal(err)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"coord", "status", "-coord", url}, &stdout, &stderr); code != 0 {
		t.Fatalf("status: exit %d: %s", code, stderr.String())
	}
	if got := stdout.String(); !strings.Contains(got, "complete, VALIDATION FAILED") || !strings.Contains(got, c.runKey) {
		t.Errorf("status of a contradicting campaign does not read unvalidated naming %s:\n%.400s", c.runKey, got)
	}
}

// TestCoordFlagBounds: a flag value the coordinator would otherwise
// clamp silently is a usage error naming the flag, as `flit gc -keep 0`
// is: coord gc -keep below 1, coord serve -lease-ttl not positive and
// -max-shard-attempts below 1. A coord serve that accepted its flags
// would serve forever, so each call runs under a deadline.
func TestCoordFlagBounds(t *testing.T) {
	url := startCoordServe(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	if code := run([]string{"coord", "gc", "-coord", url, "-keep", "0"}, &stdout, &stderr); code != 1 ||
		!strings.Contains(stderr.String(), "-keep") {
		t.Errorf("coord gc -keep 0: exit %d, want 1 naming -keep; stdout %q stderr %q", code, stdout.String(), stderr.String())
	}
	for _, c := range []struct{ flag, value string }{
		{"-lease-ttl", "0s"},
		{"-lease-ttl", "-1s"},
		{"-max-shard-attempts", "0"},
	} {
		out, dir := &syncBuffer{}, t.TempDir()
		codec := make(chan int, 1)
		go func() {
			codec <- run([]string{"coord", "serve", "-dir", dir, "-addr", "127.0.0.1:0", c.flag, c.value}, out, out)
		}()
		select {
		case code := <-codec:
			if code != 1 || !strings.Contains(out.String(), c.flag) {
				t.Errorf("coord serve %s %s: exit %d, want 1 naming the flag: %q", c.flag, c.value, code, out.String())
			}
		case <-time.After(10 * time.Second):
			t.Errorf("coord serve %s %s was accepted and served: %q", c.flag, c.value, out.String())
		}
	}
}

// TestMergeListsMissingAndDuplicatedShards: the incomplete-partition
// diagnostics the coordinator (and a human) acts on — exact indices.
func TestMergeListsMissingAndDuplicatedShards(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 4)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.json", i))
		var stdout, stderr bytes.Buffer
		if code := run([]string{"experiments", "-shard", fmt.Sprintf("%d/4", i),
			"-shard-out", paths[i], "table4"}, &stdout, &stderr); code != 0 {
			t.Fatalf("shard %d: exit %d, stderr: %s", i, code, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	// Missing shards 1 and 3, shard 2 given twice.
	code := run([]string{"merge", paths[0], paths[2], paths[2]}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("broken partition merged: exit %d, want 1", code)
	}
	msg := stderr.String()
	for _, want := range []string{"missing shard indices [1 3]", "duplicated shard indices [2]"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
}

// TestWorkPoisonedShardQuarantine drives the failure-containment story
// through the CLI entry points: a FLIT_WORK_FAIL-poisoned shard is
// quarantined after exactly the coordinator's attempt budget, the
// poisoned campaign reaches terminal failed (the -exit-when-done
// coordinator exits non-zero naming the quarantined shard), the healthy
// campaign sharing the tenancy merges byte-identical, and merging the
// failed campaign's partial artifact set errors with the exact missing
// shard index.
func TestWorkPoisonedShardQuarantine(t *testing.T) {
	dir := t.TempDir()
	out := &syncBuffer{}
	codec := make(chan int, 1)
	go func() {
		codec <- run([]string{"coord", "serve", "-dir", dir, "-addr", "127.0.0.1:0",
			"-shards", "2", "-max-shard-attempts", "2", "-exit-when-done",
			"experiments", "table2"}, out, out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	url := ""
	for url == "" && time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "on http://") {
			line := s[strings.Index(s, "on http://")+len("on "):]
			url = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
		}
	}
	if url == "" {
		t.Fatalf("no URL announced: %q", out.String())
	}
	poisonedID := strings.SplitN(afterToken(out.String(), "campaign "), ":", 2)[0]

	var sout, serr bytes.Buffer
	if code := run([]string{"coord", "submit", "-coord", url,
		"-shards", "2", "experiments", "table4"}, &sout, &serr); code != 0 {
		t.Fatalf("submit healthy campaign: exit %d: %s", code, serr.String())
	}
	healthyID := strings.SplitN(afterToken(sout.String(), "campaign "), ":", 2)[0]

	// Poison shard 1 of the table2 campaign only; table4 runs clean even
	// though the env var stays set for both drains.
	t.Setenv("FLIT_WORK_FAIL", "table2:1")
	var wout bytes.Buffer
	if code := run([]string{"work", "-coord", url, "-j", "2", "-stats", "-v"}, &wout, &wout); code != 0 {
		t.Fatalf("worker: exit %d: %s\ncoord output: %s", code, wout.String(), out.String())
	}
	if !strings.Contains(wout.String(), "failed=2") {
		t.Errorf("worker stats should count 2 reported failures (budget 2): %s", wout.String())
	}
	if !strings.Contains(wout.String(), "quarantined (attempt budget exhausted)") {
		t.Errorf("worker log missing the quarantine event: %s", wout.String())
	}

	select {
	case code := <-codec:
		if code == 0 {
			t.Fatalf("coord serve exited 0 over a terminally failed campaign: %s", out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("coord serve did not exit after all campaigns settled: %s", out.String())
	}
	for _, want := range []string{"FAILED", "shards [1] quarantined", "FLIT_WORK_FAIL"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("coord serve output missing %q: %s", want, out.String())
		}
	}

	// The healthy campaign is untouched: byte-identical to unsharded.
	var want, stderr bytes.Buffer
	if code := run([]string{"experiments", "-j", "2", "table4"}, &want, &stderr); code != 0 {
		t.Fatalf("unsharded run: exit %d, stderr: %s", code, stderr.String())
	}
	arts, err := filepath.Glob(filepath.Join(dir, "artifacts", healthyID, "shard-*.json"))
	if err != nil || len(arts) != 2 {
		t.Fatalf("healthy artifacts = %v (err %v), want 2 files", arts, err)
	}
	var got bytes.Buffer
	stderr.Reset()
	if code := run(append([]string{"merge", "-j", "2"}, arts...), &got, &stderr); code != 0 {
		t.Fatalf("healthy merge: exit %d, stderr: %s", code, stderr.String())
	}
	if got.String() != want.String() {
		t.Error("healthy campaign merge is not byte-identical to the unsharded run")
	}

	// The failed campaign's partial artifact set refuses to merge, naming
	// the quarantined shard exactly.
	pArts, err := filepath.Glob(filepath.Join(dir, "artifacts", poisonedID, "shard-*.json"))
	if err != nil || len(pArts) != 1 {
		t.Fatalf("poisoned artifacts = %v (err %v), want only shard 0", pArts, err)
	}
	stderr.Reset()
	var pOut bytes.Buffer
	if code := run(append([]string{"merge"}, pArts...), &pOut, &stderr); code != 1 {
		t.Fatalf("failed campaign merged: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "missing shard indices [1]") {
		t.Errorf("failed-campaign merge does not name the missing shard: %s", stderr.String())
	}
}

// TestCoordStatusRendersQuarantine: the status views surface attempts,
// quarantined shards, and failure excerpts while the coordinator is live.
func TestCoordStatusRendersQuarantine(t *testing.T) {
	dir := t.TempDir()
	url := startCoordServe(t, dir, "-max-shard-attempts", "2")
	t.Setenv("FLIT_WORK_FAIL", "table4:1")
	var wout bytes.Buffer
	if code := run([]string{"work", "-coord", url, "-j", "2"}, &wout, &wout); code != 0 {
		t.Fatalf("worker: exit %d: %s", code, wout.String())
	}
	var fleet, stderr bytes.Buffer
	if code := run([]string{"coord", "status", "-coord", url}, &fleet, &stderr); code != 0 {
		t.Fatalf("status: exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"1 quarantined", "FAILED:", "shards [1] quarantined"} {
		if !strings.Contains(fleet.String(), want) {
			t.Errorf("fleet status missing %q: %s", want, fleet.String())
		}
	}
	id := strings.SplitN(afterToken(fleet.String(), "campaign "), ":", 2)[0]
	var detail bytes.Buffer
	stderr.Reset()
	if code := run([]string{"coord", "status", "-coord", url, "-campaign", id}, &detail, &stderr); code != 0 {
		t.Fatalf("detail status: exit %d: %s", code, stderr.String())
	}
	for _, want := range []string{"attempt budget 2", "shard 1: QUARANTINED after 2 attempts",
		"shard 1 attempt 1 failed", "shard 1 attempt 2 failed", "FLIT_WORK_FAIL"} {
		if !strings.Contains(detail.String(), want) {
			t.Errorf("detail status missing %q: %s", want, detail.String())
		}
	}
}
