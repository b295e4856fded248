package coord_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/flit"
)

// TestFailBudgetQuarantineAndTerminalFailure drives the containment
// state machine end to end: a deterministically failing shard is
// quarantined after exactly the configured attempt budget, the campaign
// reaches terminal failed once every shard is settled, the Done channel
// fires so fleets drain, and the failure reports carry the worker,
// attempt number, error, and excerpt.
func TestFailBudgetQuarantineAndTerminalFailure(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second},
		coord.Spec{Command: campaignCommand, Shards: 2, MaxAttempts: 2})
	id := ids[0]
	// Grants hand out the first available shard, so a failed-but-not-yet-
	// quarantined shard is re-granted immediately: the burn order is
	// shard 0 twice (quarantined on the second), then shard 1 twice.
	wantShard := []int{0, 0, 1, 1}
	for i, want := range wantShard {
		g, state, err := c.Lease(id, "w1")
		if err != nil || state != coord.Granted {
			t.Fatalf("lease %d: state=%v err=%v", i, state, err)
		}
		if g.Shard != want {
			t.Fatalf("lease %d granted shard %d, want %d", i, g.Shard, want)
		}
		quarantined, failed, allTerminal, err := c.Fail(id, "w1", g.LeaseID, g.Shard,
			fmt.Sprintf("boom on shard %d", g.Shard), "stack excerpt\nline two")
		if err != nil {
			t.Fatalf("fail %d: %v", i, err)
		}
		wantQ := i%2 == 1 // budget is exactly 2: the second failure quarantines
		if quarantined != wantQ {
			t.Fatalf("fail %d (shard %d): quarantined=%v, want %v", i, g.Shard, quarantined, wantQ)
		}
		wantFailed := i == 3
		if failed != wantFailed || allTerminal != wantFailed {
			t.Fatalf("fail %d: failed=%v allTerminal=%v, want %v", i, failed, allTerminal, wantFailed)
		}
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Done() did not fire on a terminally failed tenancy — -exit-when-done would hang")
	}
	if _, state, err := c.Lease(id, "w2"); err != nil || state != coord.Failed {
		t.Fatalf("lease on failed campaign: state=%v err=%v, want Failed", state, err)
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !st.Failed || st.Complete || st.Validated {
		t.Fatalf("status = %+v, want state=failed", st)
	}
	if len(st.Quarantined) != 2 || st.Quarantined[0] != 0 || st.Quarantined[1] != 1 {
		t.Fatalf("quarantined = %v, want [0 1]", st.Quarantined)
	}
	for i, n := range st.Attempts {
		if n != 2 {
			t.Fatalf("shard %d attempts = %d, want 2", i, n)
		}
	}
	if !strings.Contains(st.Problem, "shard 0") || !strings.Contains(st.Problem, "shard 1") ||
		!strings.Contains(st.Problem, "boom on shard 1") {
		t.Fatalf("problem %q does not name the quarantined shards and last errors", st.Problem)
	}
	if len(st.Failures) != 4 {
		t.Fatalf("failures = %d, want 4 (2 shards x 2 attempts)", len(st.Failures))
	}
	for _, f := range st.Failures {
		if f.Worker != "w1" || f.Attempt < 1 || f.Attempt > 2 ||
			!strings.Contains(f.Error, fmt.Sprintf("boom on shard %d", f.Shard)) ||
			!strings.Contains(f.Excerpt, "stack excerpt") {
			t.Fatalf("failure report %+v is missing worker/attempt/error/excerpt", f)
		}
	}
	infos := c.Campaigns()
	if !infos[0].Failed || infos[0].Quarantined != 2 || infos[0].FailReports != 4 {
		t.Fatalf("campaign info = %+v, want failed with 2 quarantined and 4 reports", infos[0])
	}
	if c.FailReports() != 4 || c.QuarantinedShards() != 2 {
		t.Fatalf("fleet counters = %d reports / %d quarantined, want 4/2",
			c.FailReports(), c.QuarantinedShards())
	}
}

// TestFailPartialCampaignStaysDiagnosable: one shard quarantines, the
// other completes — the campaign is terminally failed (not complete),
// its problem names exactly the poisoned shard, and the healthy shard's
// artifact is on disk for forensics.
func TestFailPartialCampaignStaysDiagnosable(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second},
		coord.Spec{Command: campaignCommand, Shards: 2, MaxAttempts: 1})
	id := ids[0]
	srv, _ := serveCampaign(t, c)
	run := runner(t, srv.URL, 2)
	g0, state, err := c.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	quarantined, failed, _, err := c.Fail(id, "w1", g0.LeaseID, g0.Shard, "poisoned", "")
	if err != nil || !quarantined {
		t.Fatalf("fail under budget 1: quarantined=%v err=%v, want immediate quarantine", quarantined, err)
	}
	if failed {
		t.Fatal("campaign failed while a schedulable shard remains")
	}
	g1, state, err := c.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease after quarantine: state=%v err=%v (quarantined shard re-leased?)", state, err)
	}
	if g1.Shard == g0.Shard {
		t.Fatalf("quarantined shard %d was re-leased", g0.Shard)
	}
	art, err := run(campaignCommand, exec.Shard{Index: g1.Shard, Count: g1.Count})
	if err != nil {
		t.Fatal(err)
	}
	campaignDone, allTerminal, err := c.Complete(id, "w1", g1.LeaseID, g1.Shard, art)
	if err != nil {
		t.Fatal(err)
	}
	if campaignDone {
		t.Fatal("campaign reported complete with a quarantined shard")
	}
	if !allTerminal {
		t.Fatal("completion settling the last schedulable shard did not report allTerminal")
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.Done != 1 {
		t.Fatalf("status = state %q done %d, want failed with 1 done", st.State, st.Done)
	}
	if !strings.Contains(st.Problem, fmt.Sprintf("shard %d", g0.Shard)) ||
		!strings.Contains(st.Problem, "poisoned") {
		t.Fatalf("problem %q does not name shard %d and its last error", st.Problem, g0.Shard)
	}
}

// TestReleaseRefundsAttempt pins the drain semantics: a voluntary
// release hands the shard back untouched, so it must not burn budget —
// otherwise a fleet draining repeatedly would quarantine healthy shards.
func TestReleaseRefundsAttempt(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second},
		coord.Spec{Command: campaignCommand, Shards: 1, MaxAttempts: 1})
	id := ids[0]
	for i := 0; i < 5; i++ {
		g, state, err := c.Lease(id, "w1")
		if err != nil || state != coord.Granted {
			t.Fatalf("lease %d: state=%v err=%v (release burned the budget?)", i, state, err)
		}
		if err := c.Release(id, "w1", g.LeaseID, g.Shard); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts[0] != 0 || len(st.Quarantined) != 0 {
		t.Fatalf("after 5 lease/release cycles: attempts=%d quarantined=%v, want 0 and none",
			st.Attempts[0], st.Quarantined)
	}
}

// TestFailRequiresLiveLeaseAndError: a stale lease's failure report is
// refused with ErrLeaseLost (the new owner will file its own), and an
// empty error is a bad request — a report with nothing in it is not a
// report.
func TestFailRequiresLiveLeaseAndError(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second},
		coord.Spec{Command: campaignCommand, Shards: 1})
	id := ids[0]
	g, state, err := c.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	if _, _, _, err := c.Fail(id, "w1", g.LeaseID, g.Shard, "  ", ""); err == nil {
		t.Fatal("blank-error failure report accepted")
	}
	if _, _, _, err := c.Fail(id, "w1", "L-stale", g.Shard, "boom", ""); !errors.Is(err, coord.ErrLeaseLost) {
		t.Fatalf("stale-lease fail = %v, want ErrLeaseLost", err)
	}
	st, _ := c.Status(id)
	if len(st.Failures) != 0 {
		t.Fatalf("refused reports were recorded: %+v", st.Failures)
	}
	if _, _, _, err := c.Fail(id, "w1", g.LeaseID, g.Shard, "boom", ""); err != nil {
		t.Fatalf("live-lease fail: %v", err)
	}
}

// TestExpiryConsumesBudget drives the crash path with an injected clock:
// a worker that takes a lease and dies costs the shard an attempt — the
// sweep synthesizes a failure report — and enough crashed attempts
// quarantine the shard exactly like reported failures do.
func TestExpiryConsumesBudget(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second, Now: clock},
		coord.Spec{Command: campaignCommand, Shards: 1, MaxAttempts: 2})
	id := ids[0]
	if _, state, err := c.Lease(id, "w1"); err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	now = now.Add(11 * time.Second)
	// w2's poll sweeps the expiry (attempt 1 consumed, 1 < 2: re-leased).
	if _, state, err := c.Lease(id, "w2"); err != nil || state != coord.Granted {
		t.Fatalf("re-lease after first expiry: state=%v err=%v", state, err)
	}
	now = now.Add(11 * time.Second)
	// Attempt 2 expires too: budget exhausted, shard quarantined, campaign failed.
	if _, state, err := c.Lease(id, "w3"); err != nil || state != coord.Failed {
		t.Fatalf("lease after second expiry: state=%v err=%v, want Failed", state, err)
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 1 || st.Attempts[0] != 2 {
		t.Fatalf("status = %+v, want shard 0 quarantined after 2 attempts", st)
	}
	if len(st.Failures) != 2 {
		t.Fatalf("failures = %d, want 2 synthesized expiry reports", len(st.Failures))
	}
	for _, f := range st.Failures {
		if !strings.Contains(f.Error, "lease expired") {
			t.Fatalf("synthesized report %+v does not say the lease expired", f)
		}
	}
	if n := c.Releases(); n != 2 {
		t.Fatalf("releases = %d, want 2 (expiries still count as re-leases)", n)
	}
}

// TestLateCompletionLiftsQuarantine: completion is accepted even for a
// quarantined shard — a real validated artifact trumps failure history,
// so a straggler that finally finishes un-poisons the shard and the
// campaign completes and validates.
func TestLateCompletionLiftsQuarantine(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second},
		coord.Spec{Command: campaignCommand, Shards: 1, MaxAttempts: 1})
	id := ids[0]
	srv, _ := serveCampaign(t, c)
	run := runner(t, srv.URL, 2)
	g, state, err := c.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	art, err := run(campaignCommand, exec.Shard{Index: g.Shard, Count: g.Count})
	if err != nil {
		t.Fatal(err)
	}
	if quarantined, failed, _, err := c.Fail(id, "w1", g.LeaseID, g.Shard, "flaky timeout", ""); err != nil || !quarantined || !failed {
		t.Fatalf("fail: quarantined=%v failed=%v err=%v, want terminal failure", quarantined, failed, err)
	}
	// The same worker's upload lands late, under its now-cleared lease.
	campaignDone, _, err := c.Complete(id, "w1", g.LeaseID, g.Shard, art)
	if err != nil || !campaignDone {
		t.Fatalf("late completion on quarantined shard: done=%v err=%v", campaignDone, err)
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "complete" || st.Failed || !st.Validated || len(st.Quarantined) != 0 {
		t.Fatalf("status after redeeming completion = %+v, want complete+validated, no quarantine", st)
	}
	// The failure history is kept for forensics even though the shard redeemed.
	if len(st.Failures) != 1 {
		t.Fatalf("failure history = %d entries, want 1", len(st.Failures))
	}
}

// TestFailureContainmentSurvivesRestart proves the journal v3
// round-trip: attempts, quarantine flags, failure reports, and the
// terminal failed state all survive reopening the coordinator directory,
// and a quarantined shard is never resurrected as leasable.
func TestFailureContainmentSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := coord.New(dir, coord.Options{LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c1.Submit(coord.Spec{Command: campaignCommand, Shards: 2, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, state, err := c1.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	if _, _, _, err := c1.Fail(id, "w1", g.LeaseID, g.Shard, "deterministic crash", "goroutine 1 [running]:\nmain.main()"); err != nil {
		t.Fatal(err)
	}

	c2, err := coord.New(dir, coord.Options{LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	st, err := c2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0] != g.Shard || st.Attempts[g.Shard] != 1 {
		t.Fatalf("restarted status = %+v, want shard %d quarantined after 1 attempt", st, g.Shard)
	}
	if len(st.Failures) != 1 || st.Failures[0].Error != "deterministic crash" ||
		!strings.Contains(st.Failures[0].Excerpt, "goroutine 1") || st.Failures[0].Worker != "w1" {
		t.Fatalf("restarted failure report = %+v, want the original", st.Failures)
	}
	if c2.FailReports() != 1 {
		t.Fatalf("restarted fail reports = %d, want 1", c2.FailReports())
	}
	// The quarantined shard must not come back leasable: the only grant
	// left is the healthy shard, then Wait.
	g2, state, err := c2.Lease(id, "w2")
	if err != nil || state != coord.Granted || g2.Shard == g.Shard {
		t.Fatalf("post-restart lease = shard %d state %v err %v, want the healthy shard", g2.Shard, state, err)
	}
	if _, state, _ := c2.Lease(id, "w3"); state != coord.Wait {
		t.Fatalf("post-restart second lease state = %v, want Wait (quarantined shard resurrected?)", state)
	}
}

// TestFailReportsAreBoundedAndTruncated: error text and excerpts are
// clipped and only the newest reports per shard are kept, so a
// crash-looping shard cannot grow the journal without bound.
func TestFailReportsAreBoundedAndTruncated(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second},
		coord.Spec{Command: campaignCommand, Shards: 1, MaxAttempts: 1000})
	id := ids[0]
	longErr := strings.Repeat("E", 4096)
	longExcerpt := "HEAD-MARKER\n" + strings.Repeat("x", 8192) + "\nTAIL-MARKER"
	for i := 0; i < 20; i++ {
		g, state, err := c.Lease(id, "w1")
		if err != nil || state != coord.Granted {
			t.Fatalf("lease %d: state=%v err=%v", i, state, err)
		}
		if _, _, _, err := c.Fail(id, "w1", g.LeaseID, g.Shard, fmt.Sprintf("%d-%s", i, longErr), longExcerpt); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Failures) != 8 {
		t.Fatalf("kept %d failure reports, want the newest 8", len(st.Failures))
	}
	for _, f := range st.Failures {
		if len(f.Error) > 600 || len(f.Excerpt) > 2200 {
			t.Fatalf("report not truncated: error %d bytes, excerpt %d bytes", len(f.Error), len(f.Excerpt))
		}
		if !strings.Contains(f.Excerpt, "TAIL-MARKER") || strings.Contains(f.Excerpt, "HEAD-MARKER") {
			t.Fatalf("excerpt truncation kept the head, want the tail: %.80q", f.Excerpt)
		}
	}
	// Newest-kept: the last report's error starts with the last index.
	last := st.Failures[len(st.Failures)-1]
	if !strings.HasPrefix(last.Error, "19-") {
		t.Fatalf("newest report = %.20q, want the 19th failure", last.Error)
	}
	if c.FailReports() != 20 {
		t.Fatalf("fail report counter = %d, want all 20 counted even though 8 kept", c.FailReports())
	}
}

// TestWorkContinuesPastRunnerError pins the PR 10 bugfix: before, the
// worker loop returned an error on the first Runner failure, so one
// poisoned shard took down every worker that leased it. Now the worker
// reports the failure and keeps draining — the healthy campaign on the
// same tenancy completes byte-identically, the poisoned one quarantines.
func TestWorkContinuesPastRunnerError(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second},
		coord.Spec{Command: campaignCommand, Shards: 2},
		coord.Spec{Command: secondCommand, Shards: 2, MaxAttempts: 2})
	healthyID, poisonedID := ids[0], ids[1]
	srv, _ := serveCampaign(t, c)
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	real := runner(t, srv.URL, 2)
	run := func(command []string, shard exec.Shard) ([]byte, error) {
		if coord.CommandString(command) == coord.CommandString(secondCommand) && shard.Index == 1 {
			return nil, errors.New("injected deterministic failure")
		}
		return real(command, shard)
	}
	stats, err := coord.Work(context.Background(), cl, run,
		coord.WorkerOptions{Name: "w1", PollEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("worker died on a poisoned shard: %v", err)
	}
	if stats.Completed != 3 || stats.Failed != 2 {
		t.Fatalf("stats = %+v, want 3 completed and 2 failed (budget 2)", stats)
	}
	if got, want := mergedOutput(t, c, healthyID, campaignCommand, 2), unshardedOutput(t, campaignCommand, 2); got != want {
		t.Fatal("healthy campaign merge is not byte-identical to the unsharded run")
	}
	st, err := c.Status(poisonedID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || len(st.Quarantined) != 1 || st.Quarantined[0] != 1 {
		t.Fatalf("poisoned campaign status = %+v, want failed with shard 1 quarantined", st)
	}
	for _, f := range st.Failures {
		if !strings.Contains(f.Error, "injected deterministic failure") {
			t.Fatalf("failure report %+v lost the runner's error", f)
		}
	}
}

// TestWorkerPanicContainment: a Runner that panics on exactly one shard
// costs attempts, not workers — the other shards complete, the panic
// message and stack land in the failure report, and no goroutines leak.
func TestWorkerPanicContainment(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second},
		coord.Spec{Command: campaignCommand, Shards: 3, MaxAttempts: 1})
	id := ids[0]
	srv, _ := serveCampaign(t, c)
	opts := fastOpts()
	opts.Client = &http.Client{}
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, opts)
	if err != nil {
		t.Fatal(err)
	}
	real := runner(t, srv.URL, 2)
	// Baseline after the server and transports exist: keep-alive and
	// listener goroutines belong to the harness, heartbeat goroutines to
	// the worker — only the latter may not leak.
	before := runtime.NumGoroutine()
	run := func(command []string, shard exec.Shard) ([]byte, error) {
		if shard.Index == 1 {
			panic("poisoned input in shard 1")
		}
		return real(command, shard)
	}
	stats, err := coord.Work(context.Background(), cl, run,
		coord.WorkerOptions{Name: "w1", PollEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("worker died on a panicking shard: %v", err)
	}
	if stats.Completed != 2 || stats.Failed != 1 {
		t.Fatalf("stats = %+v, want 2 completed, 1 failed", stats)
	}
	st, err := c.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 2 || len(st.Quarantined) != 1 || st.Quarantined[0] != 1 {
		t.Fatalf("status = %+v, want shards 0,2 done and shard 1 quarantined", st)
	}
	if len(st.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly one", st.Failures)
	}
	f := st.Failures[0]
	if !strings.Contains(f.Error, "runner panicked") || !strings.Contains(f.Error, "poisoned input in shard 1") {
		t.Fatalf("failure error %q does not carry the panic", f.Error)
	}
	if !strings.Contains(f.Excerpt, "goroutine") {
		t.Fatalf("failure excerpt %.120q is not a stack trace", f.Excerpt)
	}
	// Heartbeat goroutines must all have drained. Park the transports'
	// idle keep-alive connections first, then allow the runtime a beat.
	opts.Client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestFailOverHTTP drives the fail path through the wire protocol: the
// client's Fail reaches the coordinator, a stale lease answers 409, and
// the lease response on a failed campaign reads "failed".
func TestFailOverHTTP(t *testing.T) {
	c, ids := newCoord(t, coord.Options{LeaseTTL: 10 * time.Second},
		coord.Spec{Command: campaignCommand, Shards: 1, MaxAttempts: 1})
	id := ids[0]
	srv, _ := serveCampaign(t, c)
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	g, state, err := cl.Lease(ctx, id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	if _, _, _, err := cl.Fail(ctx, id, "w1", "L-stale", g.Shard, "boom", ""); !errors.Is(err, coord.ErrLeaseLost) {
		t.Fatalf("stale fail over HTTP = %v, want ErrLeaseLost", err)
	}
	quarantined, failed, allTerminal, err := cl.Fail(ctx, id, "w1", g.LeaseID, g.Shard,
		"boom", "panic: boom\n\ngoroutine 7 [running]:")
	if err != nil || !quarantined || !failed || !allTerminal {
		t.Fatalf("fail over HTTP = q=%v f=%v t=%v err=%v, want all true", quarantined, failed, allTerminal, err)
	}
	if _, state, err := cl.Lease(ctx, id, "w2"); err != nil || state != coord.Failed {
		t.Fatalf("lease over HTTP on failed campaign: state=%v err=%v, want Failed", state, err)
	}
	st, err := cl.Status(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || len(st.Failures) != 1 || !strings.Contains(st.Failures[0].Excerpt, "goroutine 7") {
		t.Fatalf("status over HTTP = %+v, want the failure report with its excerpt", st)
	}
}
