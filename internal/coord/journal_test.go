package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/flit"
)

// TestJournalRefusals: journals this build must not adopt — a v1
// single-campaign journal and a v2 journal without containment state
// (their campaigns must be resubmitted), a newer format version (its
// state may not be schedulable faithfully), and a journal fenced to a
// foreign engine.
func TestJournalRefusals(t *testing.T) {
	t.Run("newer-version", func(t *testing.T) {
		dir := t.TempDir()
		raw := fmt.Sprintf(`{"version": %d, "engine": %q, "campaigns": []}`,
			coord.JournalVersion+1, flit.EngineVersion)
		if err := os.WriteFile(filepath.Join(dir, "coord.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "journal format") {
			t.Fatalf("newer journal adopted: %v", err)
		}
	})
	t.Run("v1", func(t *testing.T) {
		dir := t.TempDir()
		raw := fmt.Sprintf(`{"version": 1, "spec": {"engine": %q, "command": ["experiments", "table4"], "shards": 2}, "seq": 7, "shards": [{}, {}]}`,
			flit.EngineVersion)
		if err := os.WriteFile(filepath.Join(dir, "coord.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := coord.New(dir, coord.Options{})
		if err == nil || !strings.Contains(err.Error(), "v1") || !strings.Contains(err.Error(), "resubmit") {
			t.Fatalf("v1 journal adopted or refused without naming the version and the remedy: %v", err)
		}
	})
	t.Run("v2", func(t *testing.T) {
		dir := t.TempDir()
		raw := fmt.Sprintf(`{"version": 2, "engine": %q, "campaigns": []}`, flit.EngineVersion)
		if err := os.WriteFile(filepath.Join(dir, "coord.json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := coord.New(dir, coord.Options{})
		if err == nil || !strings.Contains(err.Error(), "v2") || !strings.Contains(err.Error(), "resubmit") {
			t.Fatalf("v2 journal adopted or refused without naming the version and the remedy: %v", err)
		}
	})
	t.Run("foreign-engine", func(t *testing.T) {
		dir := t.TempDir()
		// Write a valid journal under an alien engine, then reopen with
		// this build's fence.
		c, err := coord.New(dir, coord.Options{Engine: "flit-go/alien"})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "not interchangeable") {
			t.Fatalf("foreign-engine journal adopted: %v", err)
		}
	})
	t.Run("garbage", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "coord.json"), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "unreadable journal") {
			t.Fatalf("garbage journal adopted: %v", err)
		}
	})
}

// TestClientReportsLastStatusOnDamagedBody pins the satellite-3 fix: a
// server that answers 200 with an undecodable body exhausts the retry
// budget, and the error must name the real last status (200), not the
// zero value the old code reported after discarding the attempt.
func TestClientReportsLastStatusOnDamagedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, "{damaged")
	}))
	t.Cleanup(srv.Close)
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Status(t.Context(), "c1234")
	if err == nil {
		t.Fatal("damaged 200 responses produced no error")
	}
	if !strings.Contains(err.Error(), "last status 200") {
		t.Fatalf("exhausted error = %q, want it to report last status 200", err)
	}
	if strings.Contains(err.Error(), "status 0") {
		t.Fatalf("exhausted error still reports the discarded status: %q", err)
	}
	if !strings.Contains(err.Error(), "malformed response") {
		t.Fatalf("exhausted error = %q, want the decode failure preserved", err)
	}
}

// TestClientCtxCancelAborts: a cancelled context stops a client call
// mid-retry instead of riding out the operation deadline — the
// scheduling half of the satellite-2 ctx threading.
func TestClientCtxCancelAborts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // never answer: only cancellation ends the attempt
	}))
	t.Cleanup(srv.Close)
	// Production-scale deadlines (5s per attempt, 30s per operation); only
	// ctx can end this in milliseconds.
	cl, err := coord.NewClient(srv.URL, flit.EngineVersion, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Campaigns(ctx)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled call reported success")
		}
		if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("cancelled call returned %v, want a context cancellation", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled call did not return promptly; it is riding out the transport deadline")
	}
}

// rewriteJournal decodes dir's coord.json into a generic map, applies
// mutate, and writes it back — the hand-editing the restart and
// corruption tests need to simulate journals this build did not write.
func rewriteJournal(t *testing.T, dir string, mutate func(j map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, "coord.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var j map[string]any
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatal(err)
	}
	mutate(j)
	out, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// journalShardField mutates one field of one shard record in a generic
// journal map.
func journalShardField(j map[string]any, campaign, shard int, field string, v any) {
	cs := j["campaigns"].([]any)
	sh := cs[campaign].(map[string]any)["shards"].([]any)
	sh[shard].(map[string]any)[field] = v
}

// TestRestartGrantsJournaledLeasesAFreshTTL: the journal records who
// holds a lease, never when it expires, so a restart gives every
// journaled lease one full TTL. A coordinator down longer than the lease's
// last deadline must therefore not hand the shard to the first worker
// that asks, and the holder's next heartbeat must land.
func TestRestartGrantsJournaledLeasesAFreshTTL(t *testing.T) {
	now := time.Unix(1000, 0)
	opts := coord.Options{LeaseTTL: 10 * time.Second, Now: func() time.Time { return now }}
	dir := t.TempDir()
	c1, err := coord.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c1.Submit(coord.Spec{Command: campaignCommand, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, state, err := c1.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	now = now.Add(8 * time.Second)
	if err := c1.Heartbeat(id, "w1", g.LeaseID, g.Shard); err != nil {
		t.Fatal(err)
	}
	// Crash, and come back 25s after the grant: past the 18s deadline the
	// heartbeat set, but within one TTL of the restart. A v3 journal from
	// an earlier build also recorded that deadline; recovery ignores it.
	rewriteJournal(t, dir, func(j map[string]any) {
		journalShardField(j, 0, 0, "expiry_unix_ms", now.Add(10*time.Second).UnixMilli())
	})
	now = now.Add(17 * time.Second)
	c2, err := coord.New(dir, opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if g2, state, err := c2.Lease(id, "w2"); err != nil || state != coord.Wait {
		t.Fatalf("second worker after restart: state=%v grant=%+v err=%v, want Wait", state, g2, err)
	}
	if err := c2.Heartbeat(id, "w1", g.LeaseID, g.Shard); err != nil {
		t.Fatalf("holder's heartbeat after restart: %v", err)
	}
	if n := c2.Releases(); n != 0 {
		t.Fatalf("releases = %d after restart, want 0", n)
	}
}

// TestHeartbeatLeavesJournalUntouched: a heartbeat only moves a lease's
// deadline, which the journal does not record, so coord.json stays byte
// for byte what the grant wrote.
func TestHeartbeatLeavesJournalUntouched(t *testing.T) {
	now := time.Unix(1000, 0)
	dir := t.TempDir()
	c, err := coord.New(dir, coord.Options{LeaseTTL: 10 * time.Second, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, state, err := c.Lease(id, "w1")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	path := filepath.Join(dir, "coord.json")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(3 * time.Second)
	if err := c.Heartbeat(id, "w1", g.LeaseID, g.Shard); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("heartbeat rewrote the journal:\nbefore %s\nafter  %s", before, after)
	}
}

// TestJournalV3CorruptionRefusals: v3 containment state this build could
// not have written is refused rather than adopted — a negative attempt
// count, a shard both done and quarantined (trusting either half could
// resurrect a quarantined shard as leasable), a negative report counter.
func TestJournalV3CorruptionRefusals(t *testing.T) {
	writeDir := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		c, err := coord.New(dir, coord.Options{})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := c.Submit(coord.Spec{Command: campaignCommand, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		g, state, err := c.Lease(id, "w1")
		if err != nil || state != coord.Granted {
			t.Fatalf("lease: state=%v err=%v", state, err)
		}
		art, err := experiments.RunShard(campaignCommand, exec.Shard{Index: g.Shard, Count: 2}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Complete(id, "w1", g.LeaseID, g.Shard, art); err != nil {
			t.Fatal(err)
		}
		return dir, id
	}
	t.Run("negative-attempts", func(t *testing.T) {
		dir, _ := writeDir(t)
		rewriteJournal(t, dir, func(j map[string]any) {
			journalShardField(j, 0, 1, "attempts", -3)
		})
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "negative attempt") {
			t.Fatalf("negative attempts adopted: %v", err)
		}
	})
	t.Run("done-and-quarantined", func(t *testing.T) {
		dir, _ := writeDir(t)
		rewriteJournal(t, dir, func(j map[string]any) {
			journalShardField(j, 0, 0, "quarantined", true)
		})
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "both complete and quarantined") {
			t.Fatalf("done+quarantined shard adopted: %v", err)
		}
	})
	t.Run("negative-fail-reports", func(t *testing.T) {
		dir, _ := writeDir(t)
		rewriteJournal(t, dir, func(j map[string]any) {
			j["campaigns"].([]any)[0].(map[string]any)["fail_reports"] = -1
		})
		if _, err := coord.New(dir, coord.Options{}); err == nil ||
			!strings.Contains(err.Error(), "negative failure count") {
			t.Fatalf("negative fail_reports adopted: %v", err)
		}
	})
}
