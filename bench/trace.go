package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Tracing. A traced run records a span around every call the benchmark
// makes into a layer: driver phases, searches, shard runs, store Gets and
// Puts, HTTP round trips and the coordinator's request handlers. Spans stay
// in memory and are written as JSONL when the run ends. All of it is
// wrapped around the public APIs from outside; a nil *tracer turns every
// hook into a no-op, and untraced runs install no wrappers at all.

// span is one timed call. Start and End are nanoseconds since the tracer
// began; Parent links a call to the one that caused it (0 for a root), and
// Req names the request it served: a pass, a search or a campaign shard.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Req     string `json:"req,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Status  int    `json:"status,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has begun and not yet ended.
type open struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, parent uint64, req string) open {
	if t == nil {
		return open{}
	}
	return open{t: t, s: span{ID: t.next.Add(1), Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(t.epoch))}}
}

// id is the span's ID, 0 when tracing is off.
func (o open) id() uint64 { return o.s.ID }

func (o open) end() { o.endWith(0, "", 0) }

func (o open) endWith(bytes int64, outcome string, status int) {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.s.Bytes, o.s.Outcome, o.s.Status = bytes, outcome, status
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lane is the current parent span of one flow of work whose calls carry no
// context: the store.Store interface has none, and the coordinator worker
// sends heartbeats and completions under context.Background. The owner of
// the flow (a pass, or one worker's shard runner) moves it; the wrappers
// read it.
type lane struct {
	mu     sync.Mutex
	parent uint64
	req    string
}

func (l *lane) set(parent uint64, req string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.parent, l.req = parent, req
	l.mu.Unlock()
}

func (l *lane) get() (uint64, string) {
	if l == nil {
		return 0, ""
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.parent, l.req
}

type spanKey struct{}

type spanRef struct {
	id  uint64
	req string
}

func withSpan(ctx context.Context, o open) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{id: o.s.ID, req: o.s.Req})
}

// tracedStore is a store.Store decorator recording a span per Get and Put.
// When the wrapped store takes a context (store.Remote does), the span
// rides in it so the HTTP round trip beneath links to its store call.
type tracedStore struct {
	inner store.Store
	t     *tracer
	lane  *lane
}

// ctxStore is the context-taking form of store.Store that store.Remote
// implements.
type ctxStore interface {
	GetCtx(ctx context.Context, key string) ([]byte, bool)
	PutCtx(ctx context.Context, key string, data []byte) error
}

func (s *tracedStore) Get(key string) ([]byte, bool) {
	parent, req := s.lane.get()
	sp := s.t.begin("store.get", parent, req)
	var data []byte
	var ok bool
	if cs, isCtx := s.inner.(ctxStore); isCtx {
		data, ok = cs.GetCtx(withSpan(context.Background(), sp), key)
	} else {
		data, ok = s.inner.Get(key)
	}
	outcome := "miss"
	if ok {
		outcome = "hit"
	}
	sp.endWith(int64(len(data)), outcome, 0)
	return data, ok
}

func (s *tracedStore) Put(key string, data []byte) error {
	parent, req := s.lane.get()
	sp := s.t.begin("store.put", parent, req)
	var err error
	if cs, isCtx := s.inner.(ctxStore); isCtx {
		err = cs.PutCtx(withSpan(context.Background(), sp), key, data)
	} else {
		err = s.inner.Put(key, data)
	}
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	sp.endWith(int64(len(data)), outcome, 0)
	return err
}

// Headers carrying a client span to the server's middleware.
const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Req"
)

// tracedTransport is an http.RoundTripper recording a client span per
// request attempt and telling the server which span it is.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
	lane *lane
}

func (rt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, rid := rt.lane.get()
	if ref, ok := req.Context().Value(spanKey{}).(spanRef); ok {
		parent, rid = ref.id, ref.req
	}
	sp := rt.t.begin("http."+route(req.Method, req.URL.Path), parent, rid)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(sp.id(), 10))
	req.Header.Set(reqHeader, rid)
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		sp.endWith(0, "error", 0)
		return nil, err
	}
	status := resp.StatusCode
	onBodyClose(resp, func(n int64) { sp.endWith(n, "", status) })
	return resp, nil
}

// onBodyClose calls done, once, with the body's length when the caller
// closes the response body: a round trip ends when its answer has been
// read.
func onBodyClose(resp *http.Response, done func(n int64)) {
	resp.Body = &closeHook{ReadCloser: resp.Body, done: done}
}

type closeHook struct {
	io.ReadCloser
	done func(n int64)
	n    int64
	once sync.Once
}

func (b *closeHook) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *closeHook) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// route names a request of the coordinator/store protocol by what it does.
func route(method, path string) string {
	if strings.HasPrefix(path, "/v1/objects/") {
		return "object_" + strings.ToLower(method)
	}
	rest, ok := strings.CutPrefix(path, "/v1/coord/")
	if !ok {
		return "other"
	}
	switch rest {
	case "campaigns":
		if method == http.MethodPost {
			return "submit"
		}
		return "campaigns"
	case "gc":
		return "gc"
	}
	if _, op, ok := strings.Cut(rest, "/"); ok {
		return op
	}
	return "other"
}

// traceHandler is the server-side middleware: a span per request, linked to
// the client span named in the request's header. Lease answers are
// inspected so that lease calls granting nothing can be counted.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		rt := route(r.Method, r.URL.Path)
		sp := t.begin("coord."+rt, parent, r.Header.Get(reqHeader))
		rec := &recorder{ResponseWriter: w, status: http.StatusOK, keep: rt == "lease"}
		next.ServeHTTP(rec, r)
		outcome := ""
		if rec.keep {
			var lr struct {
				State string `json:"state"`
			}
			if json.Unmarshal(rec.body.Bytes(), &lr) == nil {
				outcome = lr.State
			}
		}
		sp.endWith(rec.n, outcome, rec.status)
	})
}

type recorder struct {
	http.ResponseWriter
	status int
	n      int64
	keep   bool
	body   bytes.Buffer
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.keep {
		r.body.Write(p)
	}
	n, err := r.ResponseWriter.Write(p)
	r.n += int64(n)
	return n, err
}

// selfTimes sums, per span name, the spans' durations and their self time:
// the duration minus the part of it that the span's children cover.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

func selfTimes(spans []span) []selfRow {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.dur()
		r.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

func printSelfTimes(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.4f %12.4f\n", r.Name, r.Count, r.Total.Seconds(), r.Self.Seconds())
	}
}
