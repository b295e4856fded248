// Package store is the persistent layer behind the build/run cache: a
// pluggable key → bytes store addressed by the engine's injective run keys
// (link.Plan.Key + flit.TestKey, fenced by flit.EngineVersion), so memoized results survive the process that computed
// them. The in-memory exec.Cache stays the first tier — single-flight
// memoization within a process — and a Store is the second: consulted on a
// memory miss before any build work happens, written through after every
// computation, so a second process (or a later campaign) pointed at the
// same store gets zero-build warm hits with no artifact manifest at all.
//
// Three backends ship: Mem, an LRU-capped in-memory map for tests; Disk,
// an on-disk store of append-only segments (each writing handle appends
// checksummed records to a segment of its own with one write(2) per Put,
// Open indexes every segment once, a store manifest fences the directory
// to one engine version); and Remote, the HTTP client of a Disk served by
// Handler, whose GET and PUT bodies are the very records a segment holds.
// Tier composes them, and OpenTiers opens the Disk-in-front-of-Remote
// stack a run writes through. Conn is the HTTP client transport Remote
// shares with the campaign coordinator's client, and Fence the engine
// fence both servers apply.
//
// Durability: a Put that returned has reached the kernel, so it survives
// the crash of the process that made it, but not a power loss or a kernel
// crash. Nothing depends on more: a lost entry is a miss.
//
// The contract every backend must honor: a Get may only return bytes that
// a Put stored under exactly that key — corrupt, truncated, foreign, or
// torn entries are reported as misses, never as results. The caller
// recomputes on a miss and a recomputation is bit-identical to the lost
// value, so losing an entry is always safe and lying about one never is.
package store

import (
	"container/list"
	"sync"
)

// Store is a persistent (or at least process-external) key → bytes map.
// Implementations must be safe for concurrent use. Get reports a miss —
// never an error value — for anything it cannot prove was stored under the
// key: the caller treats the store as a cache of recomputable results, so
// a miss costs time and a wrong hit costs correctness.
type Store interface {
	// Get returns the bytes stored under key. ok is false on any miss:
	// absent, corrupt, truncated, or written by a different engine.
	Get(key string) (data []byte, ok bool)
	// Put stores data under key, replacing any previous entry. Once it
	// returns, a Get through any handle opened afterwards sees the entry,
	// and the entry survives the crash of the calling process; whether it
	// survives a power loss depends on the backend (Disk's does not). A
	// failed Put leaves the previous entry (or absence) intact.
	Put(key string, data []byte) error
}

// Mem is the in-memory Store backend: a concurrency-safe map with optional
// LRU eviction by entry count. It exists for tests and for composing
// store-layer logic without touching a filesystem; it persists nothing
// across processes by definition.
type Mem struct {
	mu  sync.Mutex
	cap int // max entries; 0 = unbounded
	m   map[string]*list.Element
	lru *list.List // front = most recently used
}

type memEntry struct {
	key  string
	data []byte
}

// NewMem returns an empty in-memory store evicting least-recently-used
// entries once it holds more than capacity keys (<= 0 means unbounded).
func NewMem(capacity int) *Mem {
	if capacity < 0 {
		capacity = 0
	}
	return &Mem{cap: capacity, m: make(map[string]*list.Element), lru: list.New()}
}

// Get returns the stored bytes and marks the entry most recently used.
func (s *Mem) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(*memEntry).data, true
}

// Put stores a copy of data under key (the caller may reuse its buffer).
func (s *Mem) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*memEntry).data = cp
		s.lru.MoveToFront(el)
		return nil
	}
	s.m[key] = s.lru.PushFront(&memEntry{key: key, data: cp})
	for s.cap > 0 && len(s.m) > s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.m, oldest.Value.(*memEntry).key)
	}
	return nil
}

// Len reports how many entries are resident.
func (s *Mem) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
