package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store/storetest"
)

// fastOpts shrinks every transport knob so hostile tests finish in
// milliseconds: tiny backoffs, a 40ms attempt timeout (the harness stalls
// for 150ms), and a bounded overall deadline.
func fastOpts() *RemoteOptions {
	return &RemoteOptions{
		Attempts:       4,
		BaseDelay:      time.Millisecond,
		MaxDelay:       4 * time.Millisecond,
		AttemptTimeout: 40 * time.Millisecond,
		Deadline:       2 * time.Second,
	}
}

// newServed opens a Disk store in a temp dir and serves it over a flaky
// wrapper with an initially empty fault script.
func newServed(t *testing.T) (*Disk, *storetest.Flaky, *httptest.Server) {
	t.Helper()
	d, err := Open(t.TempDir(), testEngine)
	if err != nil {
		t.Fatal(err)
	}
	flaky := storetest.NewFlaky(Handler(d))
	srv := httptest.NewServer(flaky)
	t.Cleanup(srv.Close)
	return d, flaky, srv
}

func newRemote(t *testing.T, url string, opts *RemoteOptions) *Remote {
	t.Helper()
	if opts == nil {
		opts = fastOpts()
	}
	r, err := NewRemote(url, testEngine, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRemoteRoundTrip(t *testing.T) {
	disk, _, srv := newServed(t)
	r := newRemote(t, srv.URL, nil)

	key := "run\x00hostile key \x00 with NULs / slashes?&#"
	payload := []byte(`{"key":"k","scalar":1}`)
	if _, ok := r.Get(key); ok {
		t.Fatal("Get on an empty store reported a hit")
	}
	if err := r.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	// The entry really landed in the served Disk store.
	if data, ok := disk.Get(key); !ok || string(data) != string(payload) {
		t.Fatalf("served Disk store holds %q, %v", data, ok)
	}

	// A second client sharing only the URL — the cross-machine story.
	r2 := newRemote(t, srv.URL, nil)
	if got, ok := r2.Get(key); !ok || string(got) != string(payload) {
		t.Fatalf("second client Get = %q, %v", got, ok)
	}

	m := r.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Puts != 1 || m.Errors != 0 || m.Retries != 0 {
		t.Errorf("metrics %+v; want hits=1 misses=1 puts=1 errors=0 retries=0", m)
	}
}

// TestRemoteConditionalPut: re-offering a key the server already holds is
// a no-op answered 204 — nothing is appended to the server's segments (a
// PUT storm from many warm workers must not grow the store).
func TestRemoteConditionalPut(t *testing.T) {
	disk, _, srv := newServed(t)
	r := newRemote(t, srv.URL, nil)
	if err := r.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	before, err := disk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	after, err := disk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("conditional PUT rewrote the entry: stats %+v -> %+v", before, after)
	}
	if m := r.Metrics(); m.Puts != 2 {
		t.Errorf("both puts should count as successful: %+v", m)
	}
}

// TestRemoteEngineFence: a client from a different engine version gets the
// distinct fence status on both verbs, never data; the client degrades the
// Get to a miss and surfaces the Put as an error.
func TestRemoteEngineFence(t *testing.T) {
	_, _, srv := newServed(t)
	good := newRemote(t, srv.URL, nil)
	if err := good.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}

	foreign, err := NewRemote(srv.URL, "flit-engine/other", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := foreign.Get("k"); ok {
		t.Fatal("foreign-engine client read a result through the fence")
	}
	if err := foreign.Put("k2", []byte(`2`)); err == nil ||
		!strings.Contains(err.Error(), "fenced") {
		t.Fatalf("foreign-engine Put error = %v; want a fence rejection", err)
	}
	m := foreign.Metrics()
	if m.Errors != 2 || m.Retries != 0 {
		t.Errorf("fence must be terminal, not retried: %+v", m)
	}

	// The wire status is the distinct one, so clients can tell fence from miss.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+remoteKeyPath("k"), nil)
	req.Header.Set(engineHeader, "flit-engine/other")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != StatusEngineMismatch {
		t.Errorf("fence status = %d; want %d", resp.StatusCode, StatusEngineMismatch)
	}
	if got := resp.Header.Get(engineHeader); got != testEngine {
		t.Errorf("fence response advertises engine %q; want %q", got, testEngine)
	}
}

// TestRemoteFaultModesDegradeToMiss scripts every transport fault the
// harness knows in front of a store that really holds the key: each one
// must read as a miss (fail-open), and the first clean request after the
// script drains must serve the true hit again.
func TestRemoteFaultModesDegradeToMiss(t *testing.T) {
	for _, fault := range []storetest.Fault{
		storetest.Err503, storetest.Stall, storetest.Truncate,
		storetest.Corrupt, storetest.WrongEngine,
	} {
		t.Run(fault.String(), func(t *testing.T) {
			_, flaky, srv := newServed(t)
			r := newRemote(t, srv.URL, nil)
			if err := r.Put("k", []byte(`{"v":1}`)); err != nil {
				t.Fatal(err)
			}
			// Enough copies of the fault to exhaust every retry.
			for i := 0; i < fastOpts().Attempts; i++ {
				flaky.Push(fault)
			}
			if data, ok := r.Get("k"); ok {
				t.Fatalf("fault %v yielded a hit: %q", fault, data)
			}
			if m := r.Metrics(); m.Errors == 0 {
				t.Errorf("fault %v: degraded miss not counted as error: %+v", fault, m)
			}
			if flaky.Pending() > 0 && fault != storetest.Err503 && fault != storetest.Stall {
				// Terminal faults must not be retried: one request consumed.
				if got := flaky.Served(fault); got != 1 {
					t.Errorf("terminal fault %v served %d times; want 1", fault, got)
				}
			}
			flaky.Push() // no-op; script may still hold unconsumed faults for retried kinds
			for flaky.Pending() > 0 {
				r.Get("k") // drain leftovers
			}
			if data, ok := r.Get("k"); !ok || string(data) != `{"v":1}` {
				t.Fatalf("clean request after fault %v = %q, %v; want the true entry", fault, data, ok)
			}
		})
	}
}

// TestRemoteRetriesHeal: transient 503s are retried with backoff and the
// operation still succeeds, counting the retries.
func TestRemoteRetriesHeal(t *testing.T) {
	_, flaky, srv := newServed(t)
	r := newRemote(t, srv.URL, nil)
	if err := r.Put("k", []byte(`7`)); err != nil {
		t.Fatal(err)
	}
	flaky.Push(storetest.Err503, storetest.Err503)
	if data, ok := r.Get("k"); !ok || string(data) != `7` {
		t.Fatalf("Get through transient 503s = %q, %v", data, ok)
	}
	m := r.Metrics()
	if m.Retries != 2 || m.Hits != 1 {
		t.Errorf("metrics %+v; want retries=2 hits=1", m)
	}

	flaky.Push(storetest.Err503)
	if err := r.Put("k2", []byte(`8`)); err != nil {
		t.Fatalf("Put through a transient 503: %v", err)
	}
	if m := r.Metrics(); m.Retries != 3 {
		t.Errorf("Put retry not counted: %+v", m)
	}
}

// TestRemotePutExhausted: a server that never recovers fails the Put with
// an error (the caller's cache counts it and moves on) and a dead server
// (connection refused) degrades the same way on both verbs.
func TestRemotePutExhausted(t *testing.T) {
	_, flaky, srv := newServed(t)
	r := newRemote(t, srv.URL, nil)
	for i := 0; i < 8; i++ {
		flaky.Push(storetest.Err503)
	}
	if err := r.Put("k", []byte(`1`)); err == nil {
		t.Fatal("Put against a permanently failing server reported success")
	}
	if m := r.Metrics(); m.Errors != 1 || m.Retries != int64(fastOpts().Attempts-1) {
		t.Errorf("metrics %+v; want errors=1 retries=%d", m, fastOpts().Attempts-1)
	}

	srv.Close() // now nothing listens: connection refused
	dead := newRemote(t, srv.URL, nil)
	if _, ok := dead.Get("k"); ok {
		t.Fatal("Get against a dead server reported a hit")
	}
	if err := dead.Put("k", []byte(`1`)); err == nil {
		t.Fatal("Put against a dead server reported success")
	}
}

// TestRemoteDeadlineBounds: the per-operation deadline caps total time
// even when every attempt stalls.
func TestRemoteDeadlineBounds(t *testing.T) {
	_, flaky, srv := newServed(t)
	opts := fastOpts()
	opts.Deadline = 120 * time.Millisecond
	opts.Attempts = 100
	r := newRemote(t, srv.URL, opts)
	if err := r.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		flaky.Push(storetest.Stall)
	}
	start := time.Now()
	if _, ok := r.Get("k"); ok {
		t.Fatal("stalled server yielded a hit")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("deadline did not bound the operation: took %v", took)
	}
}

// TestRemoteOversizedBody: a response larger than MaxBody never becomes a
// hit (and never panics), however honest the rest of the record is.
func TestRemoteOversizedBody(t *testing.T) {
	_, _, srv := newServed(t)
	opts := fastOpts()
	opts.MaxBody = 16
	r := newRemote(t, srv.URL, opts)
	big := []byte(fmt.Sprintf(`{"pad":%q}`, strings.Repeat("x", 256)))
	if err := r.Put("k", big); err != nil {
		// The tiny MaxBody also caps the PUT echo read; storing may still
		// succeed — either way the Get below must not produce a hit.
		t.Logf("Put: %v", err)
	}
	if data, ok := r.Get("k"); ok {
		t.Fatalf("oversized body served as a hit: %d bytes", len(data))
	}
}

// TestRemoteConcurrent hammers one server from many goroutines (the -j
// fan-out shape) under -race: every Get answer must be either a miss or
// the exact stored payload.
func TestRemoteConcurrent(t *testing.T) {
	_, flaky, srv := newServed(t)
	flaky.Push(storetest.Err503, storetest.Truncate, storetest.Corrupt, storetest.Stall)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := newRemote(t, srv.URL, nil)
			for i := 0; i < 5; i++ {
				key := fmt.Sprintf("k%d", i)
				payload := fmt.Sprintf(`{"i":%d}`, i)
				r.Put(key, []byte(payload))
				if data, ok := r.Get(key); ok && string(data) != payload {
					t.Errorf("g%d: Get(%s) = %q; want %q or a miss", g, key, data, payload)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHandlerRejectsDamage: the serving side's own trust boundary —
// malformed paths, wrong methods, and uploads that are not one intact
// record of the key in the path must be rejected and never stored.
func TestHandlerRejectsDamage(t *testing.T) {
	disk, _, srv := newServed(t)
	do := func(method, path string, body string, hdr map[string]string) int {
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(engineHeader, testEngine)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := do(http.MethodGet, remotePathPrefix+"not-base64!!!", "", nil); got != http.StatusBadRequest {
		t.Errorf("malformed key path: %d; want 400", got)
	}
	if got := do(http.MethodGet, remotePathPrefix, "", nil); got != http.StatusBadRequest {
		t.Errorf("empty key path: %d; want 400", got)
	}
	if got := do(http.MethodDelete, remoteKeyPath("k"), "", nil); got != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: %d; want 405", got)
	}
	// A PUT whose record fails its SHA-256 (a torn or bit-flipped upload),
	// and an intact record of another key.
	flipped := encodeRecord("k", []byte(`{"v":1}`))
	flipped[len(flipped)-2] ^= 0x40
	if got := do(http.MethodPut, remoteKeyPath("k"), string(flipped), nil); got != http.StatusBadRequest {
		t.Errorf("damaged-record PUT: %d; want 400", got)
	}
	if got := do(http.MethodPut, remoteKeyPath("k"), string(encodeRecord("other", []byte(`{"v":1}`))), nil); got != http.StatusBadRequest {
		t.Errorf("other-key PUT: %d; want 400", got)
	}
	// A bare payload with no record around it.
	if got := do(http.MethodPut, remoteKeyPath("k"), `{"v":1}`, nil); got != http.StatusBadRequest {
		t.Errorf("unframed PUT: %d; want 400", got)
	}
	// A client of the previous wire format: a JSON envelope declaring its
	// payload's SHA-256 in an X-Flit-Sum header. A mixed fleet costs
	// recomputation, never a mangled entry.
	sum := sha256.Sum256([]byte(`{"v":1}`))
	envelope := fmt.Sprintf(`{"engine":%q,"key":"k","sum":"%x","data":{"v":1}}`, testEngine, sum)
	if got := do(http.MethodPut, remoteKeyPath("k"), envelope,
		map[string]string{"X-Flit-Sum": fmt.Sprintf("%x", sum)}); got != http.StatusBadRequest {
		t.Errorf("old envelope PUT: %d; want 400", got)
	}
	if _, ok := disk.Get("k"); ok {
		t.Fatal("a damaged upload was stored")
	}
}

// TestRemoteRequiresEngineEcho: a 200 is accepted only when the server
// echoes the client's engine. An intact record under a missing or foreign
// echo is a degraded miss, answered at once rather than retried.
func TestRemoteRequiresEngineEcho(t *testing.T) {
	for name, echo := range map[string]string{"missing": "", "foreign": "flit-engine/other"} {
		t.Run(name, func(t *testing.T) {
			d, err := Open(t.TempDir(), testEngine)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put("k", []byte(`{"v":1}`)); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				rec := httptest.NewRecorder()
				Handler(d).ServeHTTP(rec, req)
				if echo != "" {
					w.Header().Set(engineHeader, echo)
				}
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
			}))
			t.Cleanup(srv.Close)
			r := newRemote(t, srv.URL, nil)
			if data, ok := r.Get("k"); ok {
				t.Fatalf("a 200 with a %s engine echo served a hit: %q", name, data)
			}
			if m := r.Metrics(); m.Misses != 1 || m.Errors != 1 || m.Retries != 0 {
				t.Errorf("metrics %+v; want one degraded miss, no retries", m)
			}
		})
	}
}

// TestCorruptFaultFlipsOnlyPayload: the harness's Corrupt fault damages an
// object record the way bit rot does — the served body keeps its honest
// header and key, and only its SHA-256 check fails — so the fault tests
// exercise the checksum, not a key mismatch.
func TestCorruptFaultFlipsOnlyPayload(t *testing.T) {
	_, flaky, srv := newServed(t)
	key := "run\x00" + strings.Repeat("plan-token|", 80) // plan keys average ~900 bytes
	payload := []byte(`{"key":"k","scalar":4609434218613702656}`)
	r := newRemote(t, srv.URL, nil)
	if err := r.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	flaky.Push(storetest.Corrupt)
	req, err := http.NewRequest(http.MethodGet, srv.URL+remoteKeyPath(key), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(engineHeader, testEngine)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := encodeRecord(key, payload)
	if len(body) != len(want) {
		t.Fatalf("corrupted body is %d bytes, the record %d", len(body), len(want))
	}
	if n := recordHeaderLen + len(key); !bytes.Equal(body[:n], want[:n]) {
		t.Fatal("the Corrupt fault damaged the record's header or key")
	}
	if bytes.Equal(body, want) {
		t.Fatal("the Corrupt fault left the payload intact")
	}
	if _, ok := decodeRecord(body, key); ok {
		t.Fatal("a corrupted payload passed its SHA-256")
	}
}

func TestNewRemoteRejectsBadURLs(t *testing.T) {
	for _, bad := range []string{"", "not a url", "ftp://host/x", "http://", "://x", "relative/path"} {
		if _, err := NewRemote(bad, testEngine, nil); err == nil {
			t.Errorf("NewRemote(%q) accepted", bad)
		}
	}
	// A path prefix the server mounts the protocol under is kept, with its
	// trailing slash trimmed, and every request carries the engine.
	var path, engine string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		path, engine = req.URL.Path, req.Header.Get(engineHeader)
	}))
	t.Cleanup(srv.Close)
	c, err := Dial(srv.URL+"/prefix/", testEngine, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := c.Do(t.Context(), http.MethodGet, "/v1/x", nil, nil); res.Err != nil || res.Status != http.StatusOK {
		t.Fatalf("Do = %+v", res)
	}
	if path != "/prefix/v1/x" || engine != testEngine {
		t.Errorf("request went to %q with engine %q; want /prefix/v1/x and %q", path, engine, testEngine)
	}
}

func TestTierComposition(t *testing.T) {
	if Tier() != nil || Tier(nil, nil) != nil {
		t.Fatal("empty tier composition should be nil (no store)")
	}
	solo := NewMem(0)
	if got := Tier(nil, solo); got != Store(solo) {
		t.Fatal("single-survivor composition should unwrap")
	}

	local, shared := NewMem(0), NewMem(0)
	tier := Tier(local, shared)

	// Write-through: both tiers hold the entry.
	if err := tier.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, ok := local.Get("k"); !ok {
		t.Error("write-through missed the local tier")
	}
	if _, ok := shared.Get("k"); !ok {
		t.Error("write-through missed the shared tier")
	}

	// Read-through fill: a key only the deep tier holds lands in the local
	// tier after one lookup.
	shared.Put("deep", []byte("d"))
	if data, ok := tier.Get("deep"); !ok || string(data) != "d" {
		t.Fatalf("Get(deep) = %q, %v", data, ok)
	}
	if data, ok := local.Get("deep"); !ok || string(data) != "d" {
		t.Errorf("read-through did not fill the local tier: %q, %v", data, ok)
	}

	if _, ok := tier.Get("absent"); ok {
		t.Error("miss in every tier reported a hit")
	}

	// A failing tier must not block the others: puts still land locally,
	// and the error is reported.
	failing := Tier(local, failStore{})
	if err := failing.Put("k2", []byte("v2")); err == nil {
		t.Error("failing deep tier's Put error swallowed")
	}
	if _, ok := local.Get("k2"); !ok {
		t.Error("local tier skipped after a deep-tier failure")
	}
}

// failStore errors every Put and misses every Get.
type failStore struct{}

func (failStore) Get(string) ([]byte, bool) { return nil, false }
func (failStore) Put(string, []byte) error  { return fmt.Errorf("failStore: down") }
