package store

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// Wire protocol of the remote store (served by Handler, spoken by Remote):
//
//	GET  /v1/objects/<base64url(key)>   → 200 + JSON envelope, 404 miss,
//	                                      412 engine fence
//	PUT  /v1/objects/<base64url(key)>   → 201 stored, 204 already present,
//	                                      412 engine fence, 400 damaged
//
// Keys are the engine's injective plan keys and contain NUL separators, so
// they travel base64url-encoded in the path. Every request carries the
// client's engine version in the X-Flit-Engine header and every response
// echoes the server's — the same fence the Disk manifest enforces, applied
// per request because the two processes share no filesystem. A GET body is
// a JSON envelope (engine + key + payload SHA-256 + payload; the entry
// type), and the client re-validates all three fields against
// what it asked for: a lying, truncating, or bit-flipping server reads as
// a miss, never as a result.
const (
	remotePathPrefix = "/v1/objects/"
	engineHeader     = "X-Flit-Engine"
	sumHeader        = "X-Flit-Sum"
)

// StatusEngineMismatch is the distinct status the serving side answers
// when the client's engine version does not match the store's — the
// remote form of the Disk manifest rejection at Open, surfaced per
// request so a mixed fleet fails loudly instead of trading results.
const StatusEngineMismatch = http.StatusPreconditionFailed

// DefaultMaxBody bounds how many payload bytes one remote envelope may
// carry in either direction. Run records are small; a response this large
// is a misbehaving server and reads as a miss.
const DefaultMaxBody = 64 << 20

// remoteKeyPath maps a store key to its URL path.
func remoteKeyPath(key string) string {
	return remotePathPrefix + base64.RawURLEncoding.EncodeToString([]byte(key))
}

// remoteKeyFromPath inverts remoteKeyPath; ok is false for anything that
// is not one well-formed object path.
func remoteKeyFromPath(path string) (string, bool) {
	enc, found := strings.CutPrefix(path, remotePathPrefix)
	if !found || enc == "" || strings.Contains(enc, "/") {
		return "", false
	}
	raw, err := base64.RawURLEncoding.DecodeString(enc)
	if err != nil {
		return "", false
	}
	return string(raw), true
}

// decodeEnvelope validates raw as exactly one complete JSON envelope for
// (engine, key) and returns its payload. Every failure mode — truncation,
// trailing garbage, an engine or key that is not the one requested, a
// payload whose SHA-256 disagrees with the declared sum — is an error the
// caller turns into a miss; this is the trust boundary FuzzRemoteDecode
// hammers.
func decodeEnvelope(raw []byte, engine, key string) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	var e entry
	if err := dec.Decode(&e); err != nil {
		return nil, fmt.Errorf("store: remote envelope: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("store: remote envelope: trailing data after envelope")
	}
	if e.Engine != engine {
		return nil, fmt.Errorf("store: remote envelope from engine %q, want %q", e.Engine, engine)
	}
	if e.Key != key {
		return nil, errors.New("store: remote envelope answers a different key")
	}
	if e.Sum != sumHex(e.Data) {
		return nil, errors.New("store: remote envelope payload checksum mismatch")
	}
	return e.Data, nil
}

// RemoteOptions tunes a Remote's transport behavior. The zero value of
// every field selects a production-shaped default; tests shrink the
// delays and deadlines to milliseconds.
type RemoteOptions struct {
	// Client issues the requests (nil uses a plain http.Client; per-attempt
	// timeouts come from AttemptTimeout, not Client.Timeout).
	Client *http.Client
	// Attempts is the total tries per operation, first try included
	// (1 = no retries; 0 = the default 4). Only 5xx responses, connection
	// errors, and timeouts are retried — a 404 is an honest miss and an
	// engine fence will not heal by asking again.
	Attempts int
	// BaseDelay is the first retry backoff (default 50ms); each retry
	// doubles it up to MaxDelay (default 2s), with jitter on the upper
	// half so a fleet of workers does not stampede a recovering server.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// AttemptTimeout bounds each individual request, stalled bodies
	// included (default 5s).
	AttemptTimeout time.Duration
	// Deadline bounds one whole operation across all its retries and
	// backoffs (default 30s). An exhausted deadline degrades to a miss.
	Deadline time.Duration
	// MaxBody bounds the accepted response payload (default DefaultMaxBody).
	MaxBody int64
}

// WithDefaults returns a copy with every zero field filled with its
// production default — the effective values a client runs with, for
// -stats reporting and for protocols (the coordinator's) that reuse this
// transport discipline.
func (o RemoteOptions) WithDefaults() RemoteOptions {
	o.withDefaults()
	return o
}

// withDefaults fills zero fields in place.
func (o *RemoteOptions) withDefaults() {
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Attempts <= 0 {
		o.Attempts = 4
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 50 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 2 * time.Second
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 5 * time.Second
	}
	if o.Deadline <= 0 {
		o.Deadline = 30 * time.Second
	}
	if o.MaxBody <= 0 {
		o.MaxBody = DefaultMaxBody
	}
}

// RemoteMetrics is a Remote's transport-counter snapshot: what the CLI's
// -stats prints as the "remote:" line. Hits and Misses count Gets by
// outcome (every degraded failure is also a Miss — fail-open means the
// campaign saw a miss, Errors records that it was not an honest one);
// Retries counts re-sent requests across both verbs.
type RemoteMetrics struct {
	Hits    int64
	Misses  int64
	Puts    int64
	Retries int64
	Errors  int64
}

// Remote is the HTTP client Store backend: the cross-machine form of the
// Disk store, addressed by URL instead of directory. It upholds the same
// contract one tier further out — engine-version fencing per request,
// client-side re-validation of every envelope, and corruption-as-miss —
// plus the transport discipline networked code needs: bounded retries
// with exponential backoff and jitter on 5xx/timeouts/connection errors,
// a total per-operation deadline, and fail-open semantics. A dead,
// lying, or flailing server costs recomputation time, never a wrong
// result and never a failed campaign.
type Remote struct {
	base   string // URL prefix, no trailing slash
	engine string
	opts   RemoteOptions

	hits    atomic.Int64
	misses  atomic.Int64
	puts    atomic.Int64
	retries atomic.Int64
	errors  atomic.Int64
}

// NewRemote returns a Remote speaking to the store served at baseURL
// (scheme + host[:port], with any path prefix the server mounts the
// protocol under), fenced to the given engine version. opts may be nil.
func NewRemote(baseURL, engine string, opts *RemoteOptions) (*Remote, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("store: remote URL %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("store: remote URL %q: want http(s)://host[:port]", baseURL)
	}
	r := &Remote{base: strings.TrimRight(u.String(), "/"), engine: engine}
	if opts != nil {
		r.opts = *opts
	}
	r.opts.withDefaults()
	return r, nil
}

// URL returns the remote store's base URL.
func (r *Remote) URL() string { return r.base }

// Engine returns the engine version the client fences every request to.
func (r *Remote) Engine() string { return r.engine }

// Options returns the effective transport options — the defaults-filled
// values the client actually runs with, for -stats reporting.
func (r *Remote) Options() RemoteOptions { return r.opts }

// Metrics snapshots the transport counters.
func (r *Remote) Metrics() RemoteMetrics {
	return RemoteMetrics{
		Hits:    r.hits.Load(),
		Misses:  r.misses.Load(),
		Puts:    r.puts.Load(),
		Retries: r.retries.Load(),
		Errors:  r.errors.Load(),
	}
}

// retryable reports whether one attempt's failure may heal on a re-send:
// transport errors (connection refused/reset, timeouts) and 5xx server
// responses. Everything else — an honest 404, an engine fence, a
// malformed envelope — is a terminal answer for this operation.
func retryable(err error, status int) bool {
	if err != nil {
		return true
	}
	return status >= 500
}

// backoff computes the sleep before retry attempt (0-based): exponential
// from BaseDelay capped at MaxDelay, with jitter over the upper half.
func (o *RemoteOptions) backoff(attempt int) time.Duration {
	d := o.BaseDelay
	for i := 0; i < attempt && d < o.MaxDelay; i++ {
		d *= 2
	}
	if d > o.MaxDelay {
		d = o.MaxDelay
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// sleep waits for d or the context, whichever ends first.
func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Attempt is one HTTP request's outcome, normalized for the Retry loop.
type Attempt struct {
	Status int
	Body   []byte
	Err    error
}

// Retry runs one operation under o's transport discipline — the same
// bounded-retry/backoff/deadline loop the Remote store speaks, exported
// so the campaign coordinator's client upholds it too. issue builds and
// sends one attempt under its own per-attempt timeout; terminal answers
// return immediately, retryable failures (transport errors and 5xx) back
// off and re-send while attempts and the operation deadline last. onRetry
// (may be nil) is called before each re-send — the metrics hook. The
// final attempt's result is returned with exhausted=true when it was
// still retryable: the caller's cue to degrade (miss for a Get, error for
// a Put) rather than report an answer. Zero option fields take their
// production defaults.
//
// ctx bounds the whole operation alongside the Deadline option: a caller
// that is draining (a SIGTERM'd worker mid-poll) cancels ctx and the loop
// stops at once — mid-backoff, mid-attempt — instead of riding out up to
// the full 30s deadline against a service nobody is waiting on.
func (o RemoteOptions) Retry(ctx context.Context, issue func(ctx context.Context) Attempt, onRetry func()) (res Attempt, exhausted bool) {
	o.withDefaults()
	ctx, cancel := context.WithTimeout(ctx, o.Deadline)
	defer cancel()
	for attempt := 0; ; attempt++ {
		actx, acancel := context.WithTimeout(ctx, o.AttemptTimeout)
		res = issue(actx)
		acancel()
		if !retryable(res.Err, res.Status) {
			return res, false
		}
		if attempt+1 >= o.Attempts || ctx.Err() != nil {
			return res, true
		}
		if onRetry != nil {
			onRetry()
		}
		sleep(ctx, o.backoff(attempt))
		if ctx.Err() != nil {
			return res, true
		}
	}
}

// do runs the retry loop for one operation, counting re-sends in the
// Remote's metrics.
func (r *Remote) do(ctx context.Context, issue func(ctx context.Context) Attempt) (res Attempt, exhausted bool) {
	return r.opts.Retry(ctx, issue, func() { r.retries.Add(1) })
}

// send issues one HTTP request and reads a size-capped body.
func (r *Remote) send(ctx context.Context, method, key string, body []byte) Attempt {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.base+remoteKeyPath(key), reader)
	if err != nil {
		return Attempt{Err: err}
	}
	req.Header.Set(engineHeader, r.engine)
	if body != nil {
		req.Header.Set(sumHeader, sumHex(body))
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return Attempt{Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, r.opts.MaxBody+1))
	if err != nil {
		// A stalled or reset body after good headers is still a transport
		// failure of this attempt.
		return Attempt{Err: err}
	}
	if int64(len(data)) > r.opts.MaxBody {
		// An oversized envelope is a misbehaving server: keep the status so
		// the verb logic runs, but drop the body so it can never decode
		// into a hit.
		return Attempt{Status: resp.StatusCode}
	}
	return Attempt{Status: resp.StatusCode, Body: data}
}

// Get fetches and re-validates the envelope stored under key. Fail-open:
// every failure mode — absent, fenced, corrupt, oversized, server down,
// retries exhausted — is reported as a miss, so the caller recomputes and
// a write-through self-heals the entry; Errors distinguishes honest
// misses from degraded ones in the metrics. Get satisfies the Store
// interface and so carries no context; callers that need cancellation
// (a draining worker) use GetCtx.
func (r *Remote) Get(key string) ([]byte, bool) {
	return r.GetCtx(context.Background(), key)
}

// GetCtx is Get under a caller context: cancelling ctx aborts the retry
// loop immediately (degrading to a miss) instead of riding out the
// operation deadline.
func (r *Remote) GetCtx(ctx context.Context, key string) ([]byte, bool) {
	res, exhausted := r.do(ctx, func(ctx context.Context) Attempt {
		return r.send(ctx, http.MethodGet, key, nil)
	})
	switch {
	case exhausted:
		r.misses.Add(1)
		r.errors.Add(1)
		return nil, false
	case res.Status == http.StatusNotFound:
		r.misses.Add(1)
		return nil, false
	case res.Status != http.StatusOK:
		// Engine fence (412) and any other surprise: degraded miss.
		r.misses.Add(1)
		r.errors.Add(1)
		return nil, false
	}
	data, err := decodeEnvelope(res.Body, r.engine, key)
	if err != nil {
		r.misses.Add(1)
		r.errors.Add(1)
		return nil, false
	}
	r.hits.Add(1)
	return data, true
}

// Put uploads the payload under key. The server stores it only when the
// declared SHA-256 matches what arrived, and no-ops when it already holds
// a valid entry for the key. A failed Put returns an error but must not
// fail the caller's run — the computed value is already correct in
// memory; the cache layer counts the error and moves on. Put satisfies
// the Store interface; PutCtx is the cancellable form.
func (r *Remote) Put(key string, data []byte) error {
	return r.PutCtx(context.Background(), key, data)
}

// PutCtx is Put under a caller context: cancelling ctx aborts the retry
// loop immediately (the upload is abandoned, counted as an error).
func (r *Remote) PutCtx(ctx context.Context, key string, data []byte) error {
	res, exhausted := r.do(ctx, func(ctx context.Context) Attempt {
		return r.send(ctx, http.MethodPut, key, data)
	})
	switch {
	case exhausted:
		r.errors.Add(1)
		if res.Err != nil {
			return fmt.Errorf("store: remote put: retries exhausted: %w", res.Err)
		}
		return fmt.Errorf("store: remote put: retries exhausted (last status %d)", res.Status)
	case res.Status == http.StatusCreated, res.Status == http.StatusNoContent, res.Status == http.StatusOK:
		r.puts.Add(1)
		return nil
	case res.Status == StatusEngineMismatch:
		r.errors.Add(1)
		return fmt.Errorf("store: remote store is fenced to a different engine (engine %q rejected)", r.engine)
	default:
		r.errors.Add(1)
		return fmt.Errorf("store: remote put: unexpected status %d", res.Status)
	}
}
