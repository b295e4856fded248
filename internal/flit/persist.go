package flit

import (
	"encoding/json"
	"sync/atomic"

	"repro/internal/store"
)

// Persistent tier of the build/run cache.
//
// A Cache with a store attached (SetStore) consults it on every in-memory
// miss before any build work happens, and writes every freshly computed
// value through. The payloads are the artifact layer's own run records,
// floats as IEEE-754 bit patterns, so a store hit is bit-identical to the
// computation it replaces, exactly like an artifact seed, and the store is
// fenced to one EngineVersion the same way artifacts are (the Disk
// backend refuses foreign directories at Open; every decoded record is
// additionally validated here). Payloads are written by json.Marshal and
// read by the record decoder (recdec.go), which accepts a payload only
// where json.Unmarshal would decode the same record and hands every other
// payload to json.Unmarshal: a payload means exactly what encoding/json
// says it means, however it is read.
//
// Trust boundary: the store is a cache of recomputable results, never an
// authority. Anything that does not decode, validate, and match its key
// exactly is treated as a miss and recomputed — a lost entry costs time,
// a believed-corrupt one would cost correctness. Store write failures do
// not fail the run (the computed value is already in memory and correct);
// they are counted and surfaced through Metrics so -stats can report a
// store that has stopped persisting.

// Run records live under their own prefix of the store's key space.
const storeRunPrefix = "run\x00"

// StoreMetrics is the persistent tier's counter snapshot. Hits and Misses
// count store lookups (every one of which was first an in-memory miss);
// Puts counts successful write-throughs; Errors counts undecodable or
// mismatched entries and failed Puts.
type StoreMetrics struct {
	Enabled bool
	Hits    int64
	Misses  int64
	Puts    int64
	Errors  int64
}

// storeCounters aggregates the persistent tier's counters.
type storeCounters struct {
	hits   atomic.Int64
	misses atomic.Int64
	puts   atomic.Int64
	errors atomic.Int64
}

// SetStore attaches a persistent store as the cache's second tier. Call
// it before the cache serves lookups — the field is not synchronized
// against in-flight computations. A nil store detaches the tier.
func (c *Cache) SetStore(s store.Store) {
	if c == nil {
		return
	}
	c.store = s
}

// storeGetRun consults the persistent tier for one run key. A decodable,
// validated record is a store hit — served without building or running
// anything; everything else (absent, corrupt, foreign, mismatched) is a
// miss that falls through to computation.
func (c *Cache) storeGetRun(key string) (runVal, bool) {
	if c.store == nil {
		return runVal{}, false
	}
	data, ok := c.store.Get(storeRunPrefix + key)
	if !ok {
		c.storeC.misses.Add(1)
		return runVal{}, false
	}
	r, err := unmarshalRecord(data, (*recDecoder).runRecord)
	if err != nil || r.Key != key || r.validate() != nil {
		c.storeC.misses.Add(1)
		c.storeC.errors.Add(1)
		return runVal{}, false
	}
	c.storeC.hits.Add(1)
	return runValOf(r), true
}

// storePutRun writes one freshly computed run value through to the
// persistent tier. Errors are memoized like values — the toolchain is
// deterministic, so a crashed combination crashes every time — mirroring
// what artifact export records.
func (c *Cache) storePutRun(key string, v runVal) {
	if c.store == nil {
		return
	}
	data, err := json.Marshal(recordOf(key, v))
	if err == nil {
		err = c.store.Put(storeRunPrefix+key, data)
	}
	if err != nil {
		c.storeC.errors.Add(1)
		return
	}
	c.storeC.puts.Add(1)
}

// StoreMetrics snapshots the persistent tier's counters.
func (c *Cache) StoreMetrics() StoreMetrics {
	if c == nil || c.store == nil {
		return StoreMetrics{}
	}
	return StoreMetrics{
		Enabled: true,
		Hits:    c.storeC.hits.Load(),
		Misses:  c.storeC.misses.Load(),
		Puts:    c.storeC.puts.Load(),
		Errors:  c.storeC.errors.Load(),
	}
}
