package store

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// --- atomic.go ---

func TestWriteFileAtomicRenameFailure(t *testing.T) {
	// The destination is a directory: the rename must fail and the temp
	// file must not be left behind.
	dir := t.TempDir()
	dst := filepath.Join(dir, "dest")
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(dst, []byte("x")); err == nil {
		t.Fatal("rename onto a directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("stray temp file %s left after failed rename", e.Name())
		}
	}
}

// --- disk.go ---

func TestOpenRejectsUnusableDirectories(t *testing.T) {
	t.Run("path is a file", func(t *testing.T) {
		f := filepath.Join(t.TempDir(), "plain")
		if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(f, testEngine); err == nil {
			t.Fatal("Open over a regular file succeeded")
		}
	})
	t.Run("manifest is a directory", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, manifestName), 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, testEngine); err == nil {
			t.Fatal("Open with an unreadable manifest path succeeded")
		}
	})
	t.Run("foreign layout version", func(t *testing.T) {
		dir := t.TempDir()
		m := `{"store_version":99,"engine":"` + testEngine + `"}`
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(m), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, testEngine)
		if err == nil || !strings.Contains(err.Error(), "layout v99") {
			t.Fatalf("foreign layout version not rejected: %v", err)
		}
	})
}

func TestDiskDirAndEngine(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, testEngine)
	if err != nil {
		t.Fatal(err)
	}
	if d.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", d.Dir(), dir)
	}
	if d.Engine() != testEngine {
		t.Errorf("Engine() = %q, want %q", d.Engine(), testEngine)
	}
}

func TestDiskPutErrors(t *testing.T) {
	d, err := Open(t.TempDir(), testEngine)
	if err != nil {
		t.Fatal(err)
	}
	// Payloads are opaque bytes: one that is not JSON round-trips intact,
	// through this handle and a fresh one.
	opaque, err := Open(t.TempDir(), testEngine)
	if err != nil {
		t.Fatal(err)
	}
	if err := opaque.Put("k", []byte("{not json\x00\xff")); err != nil {
		t.Fatalf("Put refused a non-JSON payload: %v", err)
	}
	reopened, err := Open(opaque.Dir(), testEngine)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Disk{opaque, reopened} {
		if data, ok := h.Get("k"); !ok || string(data) != "{not json\x00\xff" {
			t.Fatalf("non-JSON payload read back as %q, %v", data, ok)
		}
	}
	// A key or payload past the scan bounds would end its segment for every
	// reader, so it is refused up front.
	if err := d.Put(strings.Repeat("k", maxKeyLen+1), []byte(`1`)); err == nil {
		t.Fatal("Put accepted a key longer than the segment format allows")
	}
	// A segments directory blocked by a regular file: the handle cannot
	// create its segment, so the Put must fail rather than vanish.
	seg := filepath.Join(d.Dir(), segmentsDir)
	if err := os.RemoveAll(seg); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("blocked-key", []byte(`{"v":1}`)); err == nil {
		t.Fatal("Put through a blocked segments directory succeeded")
	}
}

func TestDiskStatsCountsCorrupt(t *testing.T) {
	d, err := Open(t.TempDir(), testEngine)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("good", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	rot := filepath.Join(d.Dir(), segmentsDir, "00000000000000000000-deadbeef"+segmentExt)
	if err := os.WriteFile(rot, []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 entry and 1 corrupt segment", st)
	}
}

func TestDiskScanErrorsPropagate(t *testing.T) {
	d, err := Open(t.TempDir(), testEngine)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// Rip out the segments directory underneath the handle: both scans
	// must surface the error instead of reporting an empty healthy store.
	if err := os.RemoveAll(filepath.Join(d.Dir(), segmentsDir)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Stats(); err == nil {
		t.Error("Stats over a missing segments directory succeeded")
	}
	if _, err := d.GC(1, 0, false); err == nil {
		t.Error("GC over a missing segments directory succeeded")
	}
}

// --- store.go ---

func TestNewMemDefaultCap(t *testing.T) {
	m := NewMem(-1) // negative capacity clamps to unbounded
	if err := m.Put("k", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get("k"); !ok {
		t.Fatal("default-capacity Mem lost its only entry")
	}
}

// --- remote.go ---

func TestDecodeRecordWrongKey(t *testing.T) {
	rec := encodeRecord("key-a", []byte(`{"v":1}`))
	if data, ok := decodeRecord(rec, "key-a"); !ok || string(data) != `{"v":1}` {
		t.Fatalf("record does not decode under its own key: %q, %v", data, ok)
	}
	if _, ok := decodeRecord(rec, "key-b"); ok {
		t.Fatal("a replayed record for another key was accepted")
	}
}

func TestBackoffBounds(t *testing.T) {
	capped, err := NewRemote("http://127.0.0.1:1", testEngine, &RemoteOptions{
		BaseDelay: 3 * time.Millisecond, MaxDelay: 4 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 8; attempt++ {
		if d := capped.conn.opts.backoff(attempt); d > 4*time.Millisecond {
			t.Fatalf("backoff(%d) = %v exceeds MaxDelay", attempt, d)
		}
	}
	// Sub-nanosecond halves skip the jitter and return the raw delay.
	tiny, err := NewRemote("http://127.0.0.1:1", testEngine, &RemoteOptions{
		BaseDelay: 1, MaxDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := tiny.conn.opts.backoff(0); d != 1 {
		t.Fatalf("backoff with a 1ns delay = %v, want 1ns", d)
	}
}

func TestRemoteDeadlineExpiresDuringBackoff(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	// Generous attempts, a backoff longer than the whole deadline: the
	// operation must give up inside the sleep, not finish the schedule.
	r, err := NewRemote(srv.URL, testEngine, &RemoteOptions{
		Attempts: 20, BaseDelay: 200 * time.Millisecond, MaxDelay: 200 * time.Millisecond,
		AttemptTimeout: 50 * time.Millisecond, Deadline: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, ok := r.Get("k"); ok {
		t.Fatal("a 503-only server produced a hit")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not bound the backoff schedule: %v", elapsed)
	}
	m := r.Metrics()
	if m.Misses == 0 || m.Errors == 0 {
		t.Fatalf("expired operation left no miss/error trace: %+v", m)
	}
}

func TestRetryCtxCancelAbortsOperation(t *testing.T) {
	// A server that never answers, under production-scale deadlines: only
	// the caller's context can end the operation in milliseconds. This is
	// the drain path — a SIGTERM'd worker must not ride out the 30s
	// operation deadline against a service nobody is waiting on.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	r, err := NewRemote(srv.URL, testEngine, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		ok      bool
		elapsed time.Duration
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		_, ok := r.GetCtx(ctx, "k")
		done <- result{ok, time.Since(start)}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res.ok {
			t.Fatal("a cancelled Get produced a hit")
		}
		if res.elapsed > 3*time.Second {
			t.Fatalf("cancellation took %v; the retry loop rode out its deadline", res.elapsed)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("cancelled GetCtx did not return; ctx is not threaded through Conn.Do")
	}
	// PutCtx on an already-cancelled context gives up immediately too.
	start = time.Now()
	if err := r.PutCtx(ctx, "k", []byte(`{"v":1}`)); err == nil {
		t.Fatal("a cancelled Put reported success")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled Put took %v", elapsed)
	}
	if m := r.Metrics(); m.Misses == 0 || m.Errors == 0 {
		t.Fatalf("cancelled operations left no degradation trace: %+v", m)
	}
}

func TestRemotePutExhaustedOnStatus(t *testing.T) {
	// Every attempt answers 503 (no transport error), so exhaustion takes
	// the last-status branch of Put's error report.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	r, err := NewRemote(srv.URL, testEngine, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	perr := r.Put("k", []byte(`{"v":1}`))
	if perr == nil || !strings.Contains(perr.Error(), "last status 503") {
		t.Fatalf("Put against a 503-only server: %v", perr)
	}
}

func TestRemotePutUnexpectedStatus(t *testing.T) {
	// A non-retryable status outside the protocol (teapot) is a terminal
	// Put error, reported without burning the retry schedule.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	defer srv.Close()
	r, err := NewRemote(srv.URL, testEngine, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	perr := r.Put("k", []byte(`{"v":1}`))
	if perr == nil || !strings.Contains(perr.Error(), "unexpected status 418") {
		t.Fatalf("Put against a teapot: %v", perr)
	}
	if m := r.Metrics(); m.Retries != 0 {
		t.Fatalf("terminal status consumed retries: %+v", m)
	}
}

// --- serve.go ---

type brokenReader struct{}

func (brokenReader) Read([]byte) (int, error) { return 0, errors.New("torn upload") }

func TestServePutBodyAndStoreFailures(t *testing.T) {
	d, err := Open(t.TempDir(), testEngine)
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(d)

	// A body that cannot be read to completion.
	req := httptest.NewRequest(http.MethodPut, remoteKeyPath("k"), brokenReader{})
	req.Header.Set(engineHeader, testEngine)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("torn upload answered %d, want %d", rec.Code, http.StatusRequestEntityTooLarge)
	}

	// An intact record the Disk backend cannot store (a key past the
	// segment format's bound): the server must answer 500, not store it.
	long := strings.Repeat("k", maxKeyLen+1)
	req = httptest.NewRequest(http.MethodPut, remoteKeyPath(long), bytes.NewReader(encodeRecord(long, []byte(`1`))))
	req.Header.Set(engineHeader, testEngine)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unstorable record answered %d, want 500", rec.Code)
	}
	if _, ok := d.Get(long); ok {
		t.Error("unstorable record was stored anyway")
	}
}
