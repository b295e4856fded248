package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/exec"
)

// Runner executes one leased shard of a campaign command and returns
// the exported shard artifact, verbatim JSON. The CLI supplies the
// experiments-engine implementation; tests supply fakes and saboteurs.
// The artifact must be a deterministic function of (command, shard) —
// in particular, unstamped — so that two workers completing the same
// shard converge on identical bytes.
type Runner func(command []string, shard exec.Shard) ([]byte, error)

// WorkerOptions tunes the worker loop. The zero value is production-shaped.
type WorkerOptions struct {
	// Name identifies this worker in coordinator state (default "worker").
	Name string
	// PollEvery is the pause between lease attempts while every shard is
	// taken (default 500ms).
	PollEvery time.Duration
	// Log receives one line per lifecycle event (nil discards).
	Log io.Writer
}

func (o *WorkerOptions) withDefaults() {
	if o.Name == "" {
		o.Name = "worker"
	}
	if o.PollEvery <= 0 {
		o.PollEvery = 500 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
}

// WorkerStats summarizes one worker's participation across campaigns.
type WorkerStats struct {
	// Completed counts shards this worker ran and successfully reported.
	Completed int
	// Lost counts shards this worker ran to completion but whose lease was
	// lost along the way — the artifact upload was skipped because another
	// worker owns the shard now. The work is not wasted: run results were
	// written through to the shared store as they were computed.
	Lost int
	// Failed counts shards whose run failed (error or panic) and were
	// reported to the coordinator as failures. The worker itself survives
	// each one and moves to the next lease.
	Failed int
}

// Work runs the worker loop against a coordinator: list the campaigns,
// lease a shard of the first incomplete one (falling through to later
// campaigns when every shard of an earlier one is taken), run it under a
// heartbeat, upload the artifact, repeat until every campaign is done —
// so a fleet drains one campaign and then picks up the next, and a
// campaign submitted while the fleet is busy gets scheduled without
// restarting anything.
//
// Cancelling ctx drains: scheduling calls (the campaign listing and
// lease polls) are cancelled immediately — mid-backoff, mid-request —
// but a shard already running is finished and reported (the drivers are
// not interruptible and the work is worth keeping; its heartbeats and
// final Complete deliberately run outside ctx), a lease merely held is
// released, and the loop returns ctx.Err(). A lost lease (expiry or
// supersession while running) abandons only the upload and continues. A
// campaign retired by GC mid-loop is skipped, as is one that has
// terminally failed — a poisoned campaign costs the fleet nothing once
// quarantine closes it. A shard whose run fails or panics is reported
// via Fail and the loop continues to the next lease: a poisoned shard
// costs one coordinator attempt, never a worker. Transient coordinator
// errors have already consumed the client's retry budget when they
// surface here, so they terminate the loop rather than spin on a dead
// service.
func Work(ctx context.Context, cl *Client, run Runner, opts WorkerOptions) (WorkerStats, error) {
	opts.withDefaults()
	var stats WorkerStats
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		infos, err := cl.Campaigns(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return stats, ctx.Err()
			}
			return stats, err
		}
		incomplete := infos[:0:0]
		for _, ci := range infos {
			if !ci.Complete && !ci.Failed {
				incomplete = append(incomplete, ci)
			}
		}
		if len(incomplete) == 0 {
			fmt.Fprintf(opts.Log, "%s: all campaigns terminal (%d shards run here, %d lost, %d failed)\n",
				opts.Name, stats.Completed, stats.Lost, stats.Failed)
			return stats, nil
		}
		granted := false
		for _, ci := range incomplete {
			if err := ctx.Err(); err != nil {
				return stats, err
			}
			g, state, err := cl.Lease(ctx, ci.ID, opts.Name)
			if err != nil {
				if errors.Is(err, ErrNoCampaign) {
					continue // retired between the listing and the lease
				}
				if ctx.Err() != nil {
					return stats, ctx.Err()
				}
				return stats, err
			}
			if state != Granted {
				continue // Done or Wait: try the next campaign
			}
			granted = true
			if err := ctx.Err(); err != nil {
				// Drained between lease and run: hand the untouched shard back.
				// The release runs outside ctx — it is the cleanup the drain
				// exists to perform.
				_ = cl.Release(context.Background(), ci.ID, opts.Name, g.LeaseID, g.Shard)
				return stats, err
			}
			fmt.Fprintf(opts.Log, "%s: leased shard %d/%d of %s (%s)\n",
				opts.Name, g.Shard, g.Count, ci.ID, g.LeaseID)
			out, err := runShard(cl, ci.ID, run, g, opts, &stats)
			if err != nil {
				return stats, err
			}
			switch {
			case out.lost:
				fmt.Fprintf(opts.Log, "%s: lease %s lost; shard %d abandoned to its new owner\n",
					opts.Name, g.LeaseID, g.Shard)
			case out.failed:
				fmt.Fprintf(opts.Log, "%s: shard %d of %s failed; reported and moving on\n",
					opts.Name, g.Shard, ci.ID)
				if out.quarantined {
					fmt.Fprintf(opts.Log, "%s: shard %d of %s quarantined (attempt budget exhausted)\n",
						opts.Name, g.Shard, ci.ID)
				}
			default:
				fmt.Fprintf(opts.Log, "%s: shard %d of %s complete\n", opts.Name, g.Shard, ci.ID)
			}
			if out.campaignDone {
				fmt.Fprintf(opts.Log, "%s: campaign %s complete\n", opts.Name, ci.ID)
			}
			if out.campaignFailed {
				fmt.Fprintf(opts.Log, "%s: campaign %s failed terminally; skipping it from now on\n",
					opts.Name, ci.ID)
			}
			if out.allTerminal {
				// This report settled the coordinator's last open campaign.
				// Don't go back for one more listing: under -exit-when-done the
				// coordinator may already be draining, and that poll would race
				// its shutdown.
				fmt.Fprintf(opts.Log, "%s: all campaigns terminal (%d shards run here, %d lost, %d failed)\n",
					opts.Name, stats.Completed, stats.Lost, stats.Failed)
				return stats, nil
			}
			break // re-list: the tenancy may have changed while we ran
		}
		if !granted {
			fmt.Fprintf(opts.Log, "%s: all shards leased; polling\n", opts.Name)
			select {
			case <-ctx.Done():
			case <-time.After(opts.PollEvery):
			}
		}
	}
}

// shardOutcome is what one granted shard came to: exactly one of lost,
// failed, or a completion (possibly the one that finished the campaign
// or the whole tenancy).
type shardOutcome struct {
	lost           bool
	failed         bool
	quarantined    bool
	campaignDone   bool
	campaignFailed bool
	allTerminal    bool
}

// runAttempt executes the Runner once, converting a panic into an error
// plus a stack excerpt — a Runner that panics on one poisoned shard
// must cost an attempt, not the worker. Errors carry no excerpt; the
// error text is the report.
func runAttempt(run Runner, command []string, shard exec.Shard) (artifact []byte, excerpt string, err error) {
	defer func() {
		if r := recover(); r != nil {
			artifact = nil
			excerpt = string(debug.Stack())
			err = fmt.Errorf("runner panicked: %v", r)
		}
	}()
	artifact, err = run(command, shard)
	return artifact, "", err
}

// runShard executes one granted shard under a heartbeat goroutine and
// reports the result. A failing or panicking run is reported to the
// coordinator via Fail at once: a Runner is a deterministic function of
// (command, shard), so re-running it here could only repeat the failure,
// and the coordinator's attempt budget is the one retry policy.
// runShard returns an error only when the coordinator itself is
// unreachable, never because the shard's command failed. The heartbeats
// and the final Complete/Fail run under their own context — a draining
// worker keeps its lease alive while it finishes the shard, and the
// report of finished work is never the call a drain cancels.
func runShard(cl *Client, campaign string, run Runner, g Grant,
	opts WorkerOptions, stats *WorkerStats) (shardOutcome, error) {
	// Heartbeat at a third of the TTL: two beats may be dropped before the
	// lease is at risk.
	hbCtx, stopHB := context.WithCancel(context.Background())
	var hbLost bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		interval := g.TTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
			}
			// The request itself runs outside hbCtx: stopHB fires when the run
			// finishes, and cancelling an in-flight beat then would read as a
			// lost lease when nothing was lost.
			if err := cl.Heartbeat(context.Background(), campaign, opts.Name, g.LeaseID, g.Shard); err != nil {
				// Lease loss is terminal for the heartbeat; so is an exhausted
				// retry budget (the lease will expire anyway — treat the shard
				// as lost rather than report over a dead coordinator).
				if !errors.Is(err, ErrLeaseLost) {
					fmt.Fprintf(opts.Log, "%s: heartbeat failed: %v\n", opts.Name, err)
				}
				hbLost = true
				return
			}
		}
	}()
	artifact, excerpt, runErr := runAttempt(run, g.Command, exec.Shard{Index: g.Shard, Count: g.Count})
	stopHB()
	wg.Wait()
	if runErr != nil {
		// Report a structured failure so the coordinator can count it
		// against the shard's budget. The worker survives — a
		// deterministically poisoned shard is the coordinator's quarantine
		// problem, not a worker-killing one.
		stats.Failed++
		quarantined, campaignFailed, allTerminal, err := cl.Fail(context.Background(),
			campaign, opts.Name, g.LeaseID, g.Shard, runErr.Error(), excerpt)
		if err != nil {
			if errors.Is(err, ErrLeaseLost) {
				// Re-leased while we were failing: the report is moot, the new
				// owner will produce its own.
				return shardOutcome{failed: true}, nil
			}
			return shardOutcome{}, err
		}
		return shardOutcome{failed: true, quarantined: quarantined,
			campaignFailed: campaignFailed, allTerminal: allTerminal}, nil
	}
	if hbLost {
		stats.Lost++
		return shardOutcome{lost: true}, nil
	}
	campaignDone, allTerminal, err := cl.Complete(context.Background(), campaign, opts.Name, g.LeaseID, g.Shard, artifact)
	if err != nil {
		if errors.Is(err, ErrLeaseLost) {
			stats.Lost++
			return shardOutcome{lost: true}, nil
		}
		return shardOutcome{}, err
	}
	stats.Completed++
	return shardOutcome{campaignDone: campaignDone, allTerminal: allTerminal}, nil
}
