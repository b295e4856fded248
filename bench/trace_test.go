package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/flit"
	"repro/internal/store"
)

func TestTracedStoreIsByteTransparent(t *testing.T) {
	tr := newTracer()
	l := &lane{}
	l.set(42, "cold-0")
	s := &tracedStore{inner: store.NewMem(0), t: tr, lane: l}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("a miss read as a hit through the decorator")
	}
	val := []byte("{\"key\":\"k\x00\\u0000\",\"vec\":[1,2,3]}")
	if err := s.Put("k\x00k", val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k\x00k")
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v; want %q", got, ok, val)
	}
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	for i, want := range []struct{ name, outcome string }{{"store.get", "miss"}, {"store.put", "ok"}, {"store.get", "hit"}} {
		sp := spans[i]
		if sp.Name != want.name || sp.Outcome != want.outcome || sp.Parent != 42 || sp.Req != "cold-0" {
			t.Errorf("span %d = %+v, want %s/%s under 42 cold-0", i, sp, want.name, want.outcome)
		}
	}
	if spans[1].Bytes != int64(len(val)) {
		t.Errorf("put span records %d bytes, want %d", spans[1].Bytes, len(val))
	}
}

// Remote store traffic through the traced transport and the traced server
// handler must reach the disk store byte for byte, and every client span
// must find its server span.
func TestTracedTransportAndHandlerAreByteTransparent(t *testing.T) {
	tr := newTracer()
	disk, err := store.Open(t.TempDir(), flit.EngineVersion)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(traceHandler(tr, store.Handler(disk)))
	defer srv.Close()
	base := &http.Transport{}
	defer base.CloseIdleConnections()
	l := &lane{}
	hc := &http.Client{Transport: &tracedTransport{base: base, t: tr, lane: l}}
	remote, err := store.NewRemote(srv.URL, flit.EngineVersion, &store.RemoteOptions{Client: hc, Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := &tracedStore{inner: remote, t: tr, lane: l}

	// Values from a few bytes to several kilobytes, written and read back
	// from several goroutines at once.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("run\x00key-%d", i)
			val := []byte(fmt.Sprintf("{\"n\":%d,\"pad\":%q}", i, bytes.Repeat([]byte{'z'}, i*700)))
			if err := s.Put(key, val); err != nil {
				t.Errorf("put %d: %v", i, err)
				return
			}
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, val) {
				t.Errorf("get %d = %d bytes, %v; want %d bytes", i, len(got), ok, len(val))
			}
			if raw, ok := disk.Get(key); !ok || !bytes.Equal(raw, val) {
				t.Errorf("disk holds %d bytes for key %d, want %d", len(raw), i, len(val))
			}
		}(i)
	}
	wg.Wait()

	spans := tr.snapshot()
	byID := map[uint64]span{}
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	counts := map[string]int{}
	for _, sp := range spans {
		counts[sp.Name]++
		switch sp.Name {
		case "coord.object_get", "coord.object_put":
			client, ok := byID[sp.Parent]
			if !ok || client.Name != "http."+sp.Name[len("coord."):] {
				t.Errorf("server span %+v has no matching client span", sp)
			}
			if call := byID[client.Parent]; call.Name != "store."+sp.Name[len("coord.object_"):] {
				t.Errorf("client span %+v hangs under %+v, want its store call", client, call)
			}
		}
	}
	for _, name := range []string{"store.get", "store.put", "http.object_get", "http.object_put", "coord.object_get", "coord.object_put"} {
		if counts[name] != 8 {
			t.Errorf("%d %s spans, want 8", counts[name], name)
		}
	}
}

func TestTracedTransportLinksHeaderAndKeepsBody(t *testing.T) {
	tr := newTracer()
	body := bytes.Repeat([]byte("0123456789"), 5000)
	gotSpan := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotSpan <- r.Header.Get(spanHeader)
		w.Write(body)
	}))
	defer srv.Close()
	base := &http.Transport{}
	defer base.CloseIdleConnections()
	hc := &http.Client{Transport: &tracedTransport{base: base, t: tr, lane: nil}}
	resp, err := hc.Get(srv.URL + "/v1/coord/c1/lease")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("body through the transport: %d bytes, %v; want %d bytes", len(got), err, len(body))
	}
	spans := tr.snapshot()
	if len(spans) != 1 || spans[0].Name != "http.lease" || spans[0].Bytes != int64(len(body)) {
		t.Fatalf("spans = %+v, want one http.lease of %d bytes", spans, len(body))
	}
	if h := <-gotSpan; h != strconv.FormatUint(spans[0].ID, 10) {
		t.Errorf("server saw span header %q, client span is %d", h, spans[0].ID)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 30 * ms, End: 60 * ms},  // overlaps 2
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	rows := map[string]selfRow{}
	for _, r := range selfTimes(spans) {
		rows[r.Name] = r
	}
	// pass: 100ms minus [10,60) and [90,100) = 40ms.
	if got := rows["pass"].Self; got != 40*time.Millisecond {
		t.Errorf("pass self time %v, want 40ms", got)
	}
	if got := rows["a"]; got.Count != 2 || got.Total != 60*time.Millisecond || got.Self != got.Total {
		t.Errorf("row a = %+v", got)
	}
}

func TestRouteNames(t *testing.T) {
	for _, tc := range []struct{ method, path, want string }{
		{"GET", "/v1/objects/cnVu", "object_get"},
		{"PUT", "/v1/objects/cnVu", "object_put"},
		{"GET", "/v1/coord/campaigns", "campaigns"},
		{"POST", "/v1/coord/campaigns", "submit"},
		{"POST", "/v1/coord/c0123/lease", "lease"},
		{"POST", "/v1/coord/c0123/complete", "complete"},
		{"POST", "/v1/coord/c0123/heartbeat", "heartbeat"},
		{"GET", "/elsewhere", "other"},
	} {
		if got := route(tc.method, tc.path); got != tc.want {
			t.Errorf("route(%s %s) = %q, want %q", tc.method, tc.path, got, tc.want)
		}
	}
}
