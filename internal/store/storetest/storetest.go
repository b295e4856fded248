// Package storetest is the fault-injection transport harness behind the
// remote store's hostile tests: an http.Handler wrapper that serves a
// scripted sequence of transport and server faults — 5xx errors, stalled
// writes (client timeouts), truncated bodies, corrupted payloads, and
// wrong-engine fences — in front of a real store handler, then passes
// everything after the script through untouched.
//
// It exists so the store package and the experiments package prove the
// same property against the same adversary: every fault mode a network
// can produce degrades a remote-store lookup to a recompute (and the
// write-through self-heals the entry), never to a wrong result and never
// to a failed run. Tests script the faults, run the campaign at several
// -j values under -race, and diff the outputs byte for byte.
package storetest

import (
	"crypto/sha256"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// Fault is one scripted behavior for one request.
type Fault int

const (
	// Pass serves the request through untouched.
	Pass Fault = iota
	// Err503 answers 503 Service Unavailable without consulting the inner
	// handler — the retryable server-side failure.
	Err503
	// Stall writes half of the real response, then holds the connection
	// until StallFor elapses — the shape of a wedged server, which the
	// client must convert into an attempt timeout.
	Stall
	// Truncate writes the real response cut off mid-body.
	Truncate
	// Corrupt serves the real response with payload bytes flipped under
	// its honest header and key, so the record's SHA-256 no longer matches.
	Corrupt
	// WrongEngine rewrites the request's engine fence header to a foreign
	// engine version before the inner handler sees it, forcing the
	// distinct fence status.
	WrongEngine
)

// String names a fault for test diagnostics.
func (f Fault) String() string {
	switch f {
	case Pass:
		return "pass"
	case Err503:
		return "err503"
	case Stall:
		return "stall"
	case Truncate:
		return "truncate"
	case Corrupt:
		return "corrupt"
	case WrongEngine:
		return "wrong-engine"
	default:
		return "unknown"
	}
}

// Flaky wraps an inner store handler with a scripted fault queue. Each
// incoming request consumes the next fault (concurrent requests consume
// in arrival order — which request eats which fault is scheduling, and
// the properties under test must hold regardless); an empty queue serves
// Pass. Safe for concurrent use.
type Flaky struct {
	inner http.Handler
	// StallFor is how long a Stall fault holds the connection after its
	// partial write; keep it just past the client's attempt timeout so
	// tests stay fast. Defaults to 150ms.
	StallFor time.Duration
	// Match selects which requests the script applies to; requests it
	// rejects pass through without consuming a fault. Nil matches every
	// request. Coordinator tests use this to aim faults at the coord
	// endpoints (lease, heartbeat, complete) while the object traffic
	// sharing the same mux flows clean, and vice versa.
	Match func(*http.Request) bool

	mu     sync.Mutex
	script []Fault
	served map[Fault]int
}

// NewFlaky wraps inner with an initial fault script.
func NewFlaky(inner http.Handler, script ...Fault) *Flaky {
	return &Flaky{inner: inner, StallFor: 150 * time.Millisecond,
		script: append([]Fault(nil), script...), served: make(map[Fault]int)}
}

// Push appends faults to the script.
func (f *Flaky) Push(faults ...Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.script = append(f.script, faults...)
}

// Served reports how many requests were served with the given fault.
func (f *Flaky) Served(fault Fault) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.served[fault]
}

// Pending reports how many scripted faults have not been consumed yet.
func (f *Flaky) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.script)
}

// next consumes one fault from the script.
func (f *Flaky) next() Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	fault := Pass
	if len(f.script) > 0 {
		fault = f.script[0]
		f.script = f.script[1:]
	}
	f.served[fault]++
	return fault
}

// ServeHTTP applies the next scripted fault to this request.
func (f *Flaky) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if f.Match != nil && !f.Match(req) {
		f.inner.ServeHTTP(w, req)
		return
	}
	switch fault := f.next(); fault {
	case Err503:
		http.Error(w, "storetest: scripted 503", http.StatusServiceUnavailable)
	case WrongEngine:
		req.Header.Set("X-Flit-Engine", "flit-engine/storetest-foreign")
		f.inner.ServeHTTP(w, req)
	case Stall, Truncate, Corrupt:
		f.mangle(fault, w, req)
	default:
		f.inner.ServeHTTP(w, req)
	}
}

// mangle records the inner handler's real response, then serves a damaged
// version of it: the headers (status, engine echo) are always the honest
// ones, so the damage is exactly what a flaky network or a bit-rotting
// server would produce — a body that no longer matches its own
// declaration.
func (f *Flaky) mangle(fault Fault, w http.ResponseWriter, req *http.Request) {
	rec := httptest.NewRecorder()
	f.inner.ServeHTTP(rec, req)
	body := rec.Body.Bytes()
	for k, vs := range rec.Header() {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	// The truthful Content-Length would let the client detect truncation
	// for free; drop it so the damaged body has to be caught by record
	// validation, the defense that also catches a lying length.
	w.Header().Del("Content-Length")
	w.WriteHeader(rec.Code)
	switch fault {
	case Stall:
		w.Write(body[:len(body)/2])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		// Hold the rest hostage past the client's attempt timeout. The
		// request context ends as soon as the client gives up, so a passed
		// test never sits out the full duration.
		select {
		case <-req.Context().Done():
		case <-time.After(f.StallFor):
		}
	case Truncate:
		w.Write(body[:len(body)/2])
	case Corrupt:
		w.Write(corruptPayload(body))
	}
}

// corruptPayload damages a response body the way bit rot does. An object
// record ([keyLen u32][dataLen u32][sha256][key][data]) keeps its honest
// header and key and has its payload bytes flipped — a structurally valid
// record of the right key that fails SHA-256 re-validation, the exact lie
// the client must catch. Any other body (a coordinator answer, an empty
// PUT reply) gets its second half flipped.
func corruptPayload(body []byte) []byte {
	damaged := append([]byte(nil), body...)
	from := len(damaged) / 2
	if len(body) >= recordHeaderLen {
		keyLen := int64(binary.LittleEndian.Uint32(body[0:]))
		dataLen := int64(binary.LittleEndian.Uint32(body[4:]))
		if dataLen > 0 && recordHeaderLen+keyLen+dataLen == int64(len(body)) {
			from = recordHeaderLen + int(keyLen)
		}
	}
	for i := from; i < len(damaged); i++ {
		damaged[i] ^= 0x5a
	}
	return damaged
}

// recordHeaderLen is an object record's fixed prefix: two uint32 lengths
// and the SHA-256.
const recordHeaderLen = 4 + 4 + sha256.Size
