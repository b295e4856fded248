package coord_test

import (
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
// single-campaign journal (its campaign must be resubmitted), a newer
// format version (its state may not be schedulable faithfully), and a
// journal fenced to a foreign engine.
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
	t.Run("foreign-engine-v2", func(t *testing.T) {
		dir := t.TempDir()
		// Write a valid v2 journal under an alien engine, then reopen with
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
			t.Fatalf("foreign-engine v2 journal adopted: %v", err)
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
// mutate, and writes it back — the hand-editing the migration and
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

// TestJournalV2Migration: a PR 9 multi-tenant journal (version 2 — the
// v3 shape minus the containment fields) is adopted in place: the
// tenancy resumes with zero attempts and no quarantine, and the file on
// disk is atomically re-stamped to the current version so migration runs
// at most once.
func TestJournalV2Migration(t *testing.T) {
	dir := t.TempDir()
	c1, err := coord.New(dir, coord.Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c1.Submit(coord.Spec{Command: campaignCommand, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, state, err := c1.Lease(id, "w-old")
	if err != nil || state != coord.Granted {
		t.Fatalf("lease: state=%v err=%v", state, err)
	}
	// Rewind the snapshot to version 2: strip every v3 field, exactly as a
	// PR 9 build would have written it.
	rewriteJournal(t, dir, func(j map[string]any) {
		j["version"] = 2
		for _, ci := range j["campaigns"].([]any) {
			cm := ci.(map[string]any)
			delete(cm, "fail_reports")
			for _, si := range cm["shards"].([]any) {
				sm := si.(map[string]any)
				delete(sm, "attempts")
				delete(sm, "quarantined")
				delete(sm, "failures")
			}
		}
	})
	c2, err := coord.New(dir, coord.Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatalf("migrating a v2 journal: %v", err)
	}
	st, err := c2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 0 || len(st.Failures) != 0 {
		t.Fatalf("v2 migration invented containment state: %+v", st)
	}
	// The migrated lease keeps working under its pre-migration ID. The
	// grant's attempt predates v3 accounting, so attempts start at zero.
	if err := c2.Heartbeat(id, "w-old", g.LeaseID, g.Shard); err != nil {
		t.Fatalf("heartbeat on a migrated lease: %v", err)
	}
	// The file was re-stamped in place.
	raw, err := os.ReadFile(filepath.Join(dir, "coord.json"))
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Version != coord.JournalVersion {
		t.Fatalf("migrated journal on disk is v%d, want re-stamp to v%d", probe.Version, coord.JournalVersion)
	}
	// Stable: a third open is an ordinary current-version recovery.
	if _, err := coord.New(dir, coord.Options{}); err != nil {
		t.Fatalf("reopening a migrated directory: %v", err)
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
		if _, _, _, err := c.Complete(id, "w1", g.LeaseID, g.Shard, art); err != nil {
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
