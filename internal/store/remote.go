package store

import (
	"context"
	"encoding/base64"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
)

// Wire protocol of the remote store (served by Handler, spoken by Remote):
//
//	GET  /v1/objects/<base64url(key)>   → 200 + record, 404 miss,
//	                                      412 engine fence
//	PUT  /v1/objects/<base64url(key)>   → 201 stored, 204 already present,
//	                                      412 engine fence, 400 damaged
//
// Keys are the engine's injective plan keys and contain NUL separators, so
// they travel base64url-encoded in the path. Both bodies are one Disk
// segment record, [keyLen u32][dataLen u32][sha256][key][data], and both
// ends check it with the rule a Disk read applies: the record must hold
// exactly the key in the path and a payload that matches its SHA-256. The
// engine fence travels in headers (see Conn and Fence) — the same fence
// the Disk manifest enforces, applied per request because the two
// processes share no filesystem — and the client accepts a 200 only when
// the server echoes the client's own engine. A lying, truncating, or
// bit-flipping server reads as a miss, never as a result.
const remotePathPrefix = "/v1/objects/"

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
// client-side re-validation of every record, and corruption-as-miss —
// over a Conn's transport discipline, with fail-open semantics on top: a
// dead, lying, or flailing server costs recomputation time, never a
// wrong result and never a failed campaign.
type Remote struct {
	conn *Conn

	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
	errors atomic.Int64
}

// NewRemote returns a Remote speaking to the store served at baseURL
// (scheme + host[:port], with any path prefix the server mounts the
// protocol under), fenced to the given engine version. opts may be nil.
func NewRemote(baseURL, engine string, opts *RemoteOptions) (*Remote, error) {
	conn, err := Dial(baseURL, engine, opts)
	if err != nil {
		return nil, fmt.Errorf("store: remote %w", err)
	}
	return &Remote{conn: conn}, nil
}

// Metrics snapshots the transport counters.
func (r *Remote) Metrics() RemoteMetrics {
	return RemoteMetrics{
		Hits:    r.hits.Load(),
		Misses:  r.misses.Load(),
		Puts:    r.puts.Load(),
		Retries: r.conn.Retries(),
		Errors:  r.errors.Load(),
	}
}

// Get fetches and re-validates the record stored under key. Fail-open:
// every failure mode — absent, fenced, corrupt, oversized, answered by
// another engine, server down, retries exhausted — is reported as a miss,
// so the caller recomputes and a write-through self-heals the entry;
// Errors distinguishes honest misses from degraded ones in the metrics.
// Get satisfies the Store interface and so carries no context; callers
// that need cancellation (a draining worker) use GetCtx.
func (r *Remote) Get(key string) ([]byte, bool) {
	return r.GetCtx(context.Background(), key)
}

// GetCtx is Get under a caller context: cancelling ctx aborts the retry
// loop immediately (degrading to a miss) instead of riding out the
// operation deadline.
func (r *Remote) GetCtx(ctx context.Context, key string) ([]byte, bool) {
	res, exhausted := r.conn.Do(ctx, http.MethodGet, remoteKeyPath(key), nil, nil)
	if !exhausted && res.Status == http.StatusNotFound {
		r.misses.Add(1)
		return nil, false
	}
	var data []byte
	ok := !exhausted && res.Status == http.StatusOK && res.Engine == r.conn.engine
	if ok {
		data, ok = decodeRecord(res.Body, key)
	}
	if !ok {
		// Retries exhausted, the engine fence (412), a missing or foreign
		// echo, a damaged record, any other surprise: degraded miss.
		r.misses.Add(1)
		r.errors.Add(1)
		return nil, false
	}
	r.hits.Add(1)
	return data, true
}

// Put uploads the payload under key as one record. The server stores it
// only when the record holds exactly that key and its SHA-256 matches what
// arrived, and no-ops when it already holds a valid entry for the key. A
// failed Put returns an error but must not fail the caller's run — the
// computed value is already correct in memory; the cache layer counts
// the error and moves on. Put satisfies the Store interface; PutCtx is
// the cancellable form.
func (r *Remote) Put(key string, data []byte) error {
	return r.PutCtx(context.Background(), key, data)
}

// PutCtx is Put under a caller context: cancelling ctx aborts the retry
// loop immediately (the upload is abandoned, counted as an error).
func (r *Remote) PutCtx(ctx context.Context, key string, data []byte) error {
	res, exhausted := r.conn.Do(ctx, http.MethodPut, remoteKeyPath(key), encodeRecord(key, data), nil)
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
		return fmt.Errorf("store: remote store is fenced to a different engine (engine %q rejected)", r.conn.engine)
	default:
		r.errors.Add(1)
		return fmt.Errorf("store: remote put: unexpected status %d", res.Status)
	}
}
