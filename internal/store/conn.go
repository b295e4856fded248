package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// engineHeader carries the engine fence of both flit HTTP services, the
// object store and the campaign coordinator: every request names the
// client's engine version and every response echoes the server's.
const engineHeader = "X-Flit-Engine"

// StatusEngineMismatch is the distinct status the serving side answers
// when the client's engine version does not match its own — the remote
// form of the Disk manifest rejection at Open, surfaced per request so a
// mixed fleet fails loudly instead of trading results.
const StatusEngineMismatch = http.StatusPreconditionFailed

// DefaultMaxBody bounds how many bytes one request or response body may
// carry in either direction: an object record, or a coordinator call with
// its shard artifact. A response this large is a misbehaving server and
// never reaches the caller.
const DefaultMaxBody = 64 << 20

// Fence is the serving side of the engine fence, shared by the object
// store's and the coordinator's handlers: it echoes engine on the
// response and answers StatusEngineMismatch to a request from any other
// engine, reporting whether the request may proceed.
func Fence(w http.ResponseWriter, req *http.Request, engine string) bool {
	w.Header().Set(engineHeader, engine)
	if got := req.Header.Get(engineHeader); got != engine {
		http.Error(w, fmt.Sprintf("engine fence: this service runs engine %q, the request is from %q: results are not interchangeable",
			engine, got), StatusEngineMismatch)
		return false
	}
	return true
}

// RemoteOptions tunes a Conn's transport behavior. The zero value of
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
	// MaxBody bounds the accepted response body (default DefaultMaxBody).
	MaxBody int64
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

// Conn is the client side of one flit HTTP service, shared by the remote
// store (Remote) and the coordinator's client: the base URL, the engine
// header on every request, the MaxBody-capped read of every response,
// and the transport discipline networked code needs — bounded retries
// with exponential backoff and jitter on 5xx/timeouts/connection errors,
// a per-attempt timeout and a total per-operation deadline. What an
// answer means is the caller's business.
type Conn struct {
	base    string // URL prefix, no trailing slash
	engine  string
	opts    RemoteOptions
	retries atomic.Int64
}

// Dial returns a Conn to the service at baseURL (scheme + host[:port],
// with any path prefix the server mounts its protocol under), fenced to
// the given engine version. opts may be nil; zero fields take their
// production defaults. Nothing is sent until the first request.
func Dial(baseURL, engine string, opts *RemoteOptions) (*Conn, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("URL %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("URL %q: want http(s)://host[:port]", baseURL)
	}
	c := &Conn{base: strings.TrimRight(u.String(), "/"), engine: engine}
	if opts != nil {
		c.opts = *opts
	}
	c.opts.withDefaults()
	return c, nil
}

// Retries reports how many requests the Conn re-sent.
func (c *Conn) Retries() int64 { return c.retries.Load() }

// Attempt is one HTTP request's outcome: the status, the engine the
// response echoed, and the size-capped body (nil when the body exceeded
// MaxBody), or the transport error that ended the attempt.
type Attempt struct {
	Status int
	Engine string
	Body   []byte
	Err    error
}

// Do runs one operation — method on the base URL plus path, with body
// (may be nil) — under the retry loop. Terminal answers return at once;
// retryable failures (transport errors and 5xx) back off and re-send
// while attempts, the operation deadline and ctx last. check (may be nil)
// vets the body of every 200 answer: an error marks that attempt damaged,
// and it is retried like a transport failure, keeping its status and body
// so an exhausted budget reports what the server actually said. The
// final attempt comes back with exhausted=true when it was still
// retryable: the caller's cue to degrade rather than report an answer.
//
// ctx bounds the whole operation alongside the Deadline option: a caller
// that is draining (a SIGTERM'd worker mid-poll) cancels ctx and the loop
// stops at once — mid-backoff, mid-attempt — instead of riding out up to
// the full 30s deadline against a service nobody is waiting on.
func (c *Conn) Do(ctx context.Context, method, path string, body []byte, check func([]byte) error) (res Attempt, exhausted bool) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.Deadline)
	defer cancel()
	for attempt := 0; ; attempt++ {
		actx, acancel := context.WithTimeout(ctx, c.opts.AttemptTimeout)
		res = c.send(actx, method, path, body)
		acancel()
		if res.Err == nil && res.Status == http.StatusOK && check != nil {
			res.Err = check(res.Body)
		}
		if !retryable(res.Err, res.Status) {
			return res, false
		}
		if attempt+1 >= c.opts.Attempts || ctx.Err() != nil {
			return res, true
		}
		c.retries.Add(1)
		sleep(ctx, c.opts.backoff(attempt))
		if ctx.Err() != nil {
			return res, true
		}
	}
}

// send issues one HTTP request and reads a size-capped body.
func (c *Conn) send(ctx context.Context, method, path string, body []byte) Attempt {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reader)
	if err != nil {
		return Attempt{Err: err}
	}
	req.Header.Set(engineHeader, c.engine)
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return Attempt{Err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.opts.MaxBody+1))
	if err != nil {
		// A stalled or reset body after good headers is still a transport
		// failure of this attempt.
		return Attempt{Err: err}
	}
	a := Attempt{Status: resp.StatusCode, Engine: resp.Header.Get(engineHeader)}
	// An oversized body is a misbehaving server: keep the status so the
	// caller's logic runs, but drop the body so it can never be trusted.
	if int64(len(data)) <= c.opts.MaxBody {
		a.Body = data
	}
	return a
}

// retryable reports whether one attempt's failure may heal on a re-send:
// transport errors (connection refused/reset, timeouts, damaged bodies)
// and 5xx server responses. Everything else — an honest 404, an engine
// fence — is a terminal answer for this operation.
func retryable(err error, status int) bool {
	return err != nil || status >= 500
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
