package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const testEngine = "flit-engine/test"

func TestMemRoundTripAndLRU(t *testing.T) {
	s := NewMem(2)
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store reported a hit")
	}
	buf := []byte("payload-a")
	if err := s.Put("a", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // the store must have copied
	if got, ok := s.Get("a"); !ok || string(got) != "payload-a" {
		t.Fatalf("Get(a) = %q, %v", got, ok)
	}
	s.Put("b", []byte("payload-b"))
	s.Get("a") // refresh a: b is now least recently used
	s.Put("c", []byte("payload-c"))
	if _, ok := s.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	// Overwrite replaces in place without growing.
	s.Put("a", []byte("payload-a2"))
	if got, _ := s.Get("a"); string(got) != "payload-a2" {
		t.Fatalf("overwrite lost: %q", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len after overwrite = %d, want 2", s.Len())
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	// No temp debris may survive a successful write.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("stray temp file %s left behind", e.Name())
		}
	}
	if err := WriteFileAtomic(filepath.Join(dir, "nosuchdir", "f"), []byte("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

func TestDiskRoundTripAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, testEngine)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get("k"); ok {
		t.Fatal("empty store reported a hit")
	}
	payload := []byte(`{"key":"k","scalar":7}`)
	if err := d.Put("k", payload); err != nil {
		t.Fatal(err)
	}
	// A fresh handle — the second process of the cross-process story —
	// must see the entry.
	d2, err := Open(dir, testEngine)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Get("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("fresh handle Get = %q, %v", got, ok)
	}
	st, err := d2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Corrupt != 0 || st.Engine != testEngine {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestDiskEngineFencing(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, testEngine); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "flit-engine/other"); err == nil {
		t.Fatal("foreign engine opened the store")
	}
	// A corrupt manifest must refuse, not clobber.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testEngine); err == nil {
		t.Fatal("unreadable manifest accepted")
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil || string(raw) != "not json" {
		t.Fatalf("refusing Open rewrote the manifest: %q, %v", raw, err)
	}
}

// recordOf locates the record d's index holds for key: its segment file,
// offset and length.
func recordOf(t *testing.T, d *Disk, key string) (path string, off, size int64) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	l, ok := d.index[sha256.Sum256([]byte(key))]
	if !ok {
		t.Fatalf("no record indexed for %q", key)
	}
	return d.segs[l.seg].Name(), l.off, l.size()
}

// rewrite replaces a file's bytes with fn's result, in place (the writing
// handle's descriptor keeps pointing at the same file).
func rewrite(t *testing.T, path string, fn func(raw []byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustOpen(t *testing.T, dir string) *Disk {
	t.Helper()
	d, err := Open(dir, testEngine)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskCorruptEntryIsMiss: every way a record can be damaged must read
// as a miss — through the handle that wrote it and through a fresh one —
// and the next Put of the key repairs it.
func TestDiskCorruptEntryIsMiss(t *testing.T) {
	payload := []byte(`{"v":1}`)
	corruptions := []struct {
		name   string
		mutate func(raw []byte, off, size int64) []byte
	}{
		{"truncated", func(raw []byte, off, size int64) []byte { return raw[:off+size/2] }},
		{"trailing garbage", func(raw []byte, off, size int64) []byte {
			// The record's payload grows two bytes its sum never covered.
			out := append([]byte{}, raw[:off+size]...)
			binary.LittleEndian.PutUint32(out[off+4:], uint32(len(payload)+2))
			return append(out, "{}"...)
		}},
		{"payload bit flip", func(raw []byte, off, size int64) []byte {
			return bytes.Replace(raw, []byte(`"v":1`), []byte(`"v":2`), 1)
		}},
		{"key bit flip", func(raw []byte, off, size int64) []byte {
			raw[off+recordHeaderLen] ^= 0x01 // "k" becomes "j"
			return raw
		}},
		{"sum bit flip", func(raw []byte, off, size int64) []byte {
			raw[off+8] ^= 0x80
			return raw
		}},
		{"emptied", func([]byte, int64, int64) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir)
			if err := d.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			path, off, size := recordOf(t, d, "k")
			rewrite(t, path, func(raw []byte) []byte { return tc.mutate(raw, off, size) })
			if got, ok := d.Get("k"); ok {
				t.Fatalf("corrupt entry served as a hit: %q", got)
			}
			if d.CorruptReads() == 0 {
				t.Error("corrupt read not counted")
			}
			// A fresh handle — the next process — misses too.
			fresh := mustOpen(t, dir)
			if got, ok := fresh.Get("k"); ok {
				t.Fatalf("corrupt entry served as a hit to a fresh handle: %q", got)
			}
			// The recomputation's Put heals the entry, for the handle that
			// puts it and, through a newer record, for the next process.
			if err := d.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.Get("k"); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("healed entry Get = %q, %v", got, ok)
			}
			if err := fresh.Put("k", payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := mustOpen(t, dir).Get("k"); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("healed entry in the next process: Get = %q, %v", got, ok)
			}
		})
	}
}

// TestDiskWrongKeyFile: a record that answers for another key — an index
// slot pointing at the wrong record, or a record whose key bytes were
// rewritten — must miss: the stored key is compared byte for byte and the
// record's SHA-256 covers the key.
func TestDiskWrongKeyFile(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	if err := d.Put("a", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	d.index[sha256.Sum256([]byte("b"))] = d.index[sha256.Sum256([]byte("a"))]
	d.mu.Unlock()
	if _, ok := d.Get("b"); ok {
		t.Fatal("record for key a answered a Get for key b")
	}
	if d.CorruptReads() != 1 {
		t.Errorf("misfiled record not counted as corrupt: %d", d.CorruptReads())
	}

	path, off, _ := recordOf(t, d, "a")
	rewrite(t, path, func(raw []byte) []byte {
		raw[off+recordHeaderLen] = 'b'
		return raw
	})
	fresh := mustOpen(t, dir)
	if _, ok := fresh.Get("b"); ok {
		t.Fatal("a record relabelled from key a to key b served a hit")
	}
	if fresh.CorruptReads() != 1 {
		t.Errorf("relabelled record not counted as corrupt: %d", fresh.CorruptReads())
	}
}

// TestDiskForeignEngineEntryIsMiss: a segment copied in from a store of a
// different engine version misses even though its records are intact.
func TestDiskForeignEngineEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	foreign, err := Open(filepath.Join(dir, "f"), "flit-engine/other")
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	path, _, _ := recordOf(t, foreign, "k")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ddir := filepath.Join(dir, "d")
	mustOpen(t, ddir)
	if err := os.WriteFile(filepath.Join(ddir, segmentsDir, filepath.Base(path)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d := mustOpen(t, ddir)
	if _, ok := d.Get("k"); ok {
		t.Fatal("foreign-engine record served as a hit")
	}
	if st, err := d.Stats(); err != nil || st.Entries != 0 || st.Corrupt != 1 {
		t.Fatalf("Stats over a foreign segment = %+v, %v", st, err)
	}
}

// keyID is how GC names an evicted entry.
func keyID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// segmentPaths lists the store's segment files.
func segmentPaths(t *testing.T, d *Disk) []string {
	t.Helper()
	names, _, err := d.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Join(d.Dir(), segmentsDir, n)
	}
	return names
}

func TestDiskGC(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	// Five entries in append order, then one of them damaged.
	for i := 0; i < 5; i++ {
		if err := d.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf(`%d`, i))); err != nil {
			t.Fatal(err)
		}
	}
	path, off, size := recordOf(t, d, "k1")
	rewrite(t, path, func(raw []byte) []byte {
		raw[off+size-1] = '7'
		return raw
	})
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := d.GC(2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	// The damaged record is always pruned; of the 4 intact entries the 2
	// oldest go.
	if plan.Kept != 2 || len(plan.Pruned) != 3 || plan.Corrupt != 1 {
		t.Fatalf("dry-run plan = %+v", plan)
	}
	if want := fmt.Sprintf("%s@%d", filepath.Join(segmentsDir, filepath.Base(path)), off); plan.Pruned[0] != want {
		t.Errorf("damaged spot named %q, want %q", plan.Pruned[0], want)
	}
	if plan.Pruned[1] != keyID("k0") || plan.Pruned[2] != keyID("k2") {
		t.Errorf("evicted %v, want k0 and k2 oldest first", plan.Pruned[1:])
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatal("dry-run GC changed the segment")
	}

	res, err := d.GC(2, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 2 || len(res.Pruned) != 3 || res.PrunedBytes <= 0 {
		t.Fatalf("apply result = %+v", res)
	}
	if _, err := os.Stat(path); err == nil {
		t.Errorf("compacted segment %s still exists", path)
	}
	// The newest entries survive, for this handle and the next process;
	// the pruned ones are gone for both.
	for _, h := range []*Disk{d, mustOpen(t, dir)} {
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("k%d", i)
			got, ok := h.Get(key)
			if want := i >= 3; ok != want || (ok && string(got) != fmt.Sprint(i)) {
				t.Errorf("after GC Get(%s) = %q, %v; want hit %v", key, got, ok, want)
			}
		}
	}
	st, err := d.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 2 || st.Corrupt != 0 {
		t.Fatalf("post-GC Stats = %+v", st)
	}
	// The handle keeps writing after compaction, into a fresh segment.
	if err := d.Put("k5", []byte(`5`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustOpen(t, dir).Get("k5"); !ok {
		t.Fatal("a Put after GC is not visible to the next process")
	}
}

// TestDiskGCDeterministicOnTiedMtimes: GC orders entries by append order,
// not by file times, so repeated planning passes agree on what to prune
// and always prune the oldest.
func TestDiskGCDeterministicOnTiedMtimes(t *testing.T) {
	d := mustOpen(t, t.TempDir())
	for i := 0; i < 6; i++ {
		if err := d.Put(fmt.Sprintf("k%d", i), []byte(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	tied := time.Now().Add(-time.Hour)
	for _, path := range segmentPaths(t, d) {
		if err := os.Chtimes(path, tied, tied); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{keyID("k0"), keyID("k1"), keyID("k2")}
	for i := 0; i < 10; i++ {
		plan, err := d.GC(3, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(plan.Pruned) != fmt.Sprint(want) {
			t.Fatalf("pass %d pruned %v, want the three oldest %v", i, plan.Pruned, want)
		}
	}
}

// TestDiskByteLimitGC: the -max-bytes bound prunes oldest-first until the
// records fit.
func TestDiskByteLimitGC(t *testing.T) {
	d := mustOpen(t, t.TempDir())
	var sizes []int64
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := d.Put(key, []byte(`12345678`)); err != nil {
			t.Fatal(err)
		}
		_, _, size := recordOf(t, d, key)
		sizes = append(sizes, size)
	}
	// Allow two entries' worth of bytes.
	res, err := d.GC(0, sizes[0]*2, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 2 || len(res.Pruned) != 2 {
		t.Fatalf("byte-limit GC = %+v (record size %d)", res, sizes[0])
	}
	if res.Pruned[0] != keyID("k0") || res.Pruned[1] != keyID("k1") {
		t.Errorf("byte-limit GC evicted %v, want k0 and k1", res.Pruned)
	}
}

// TestDiskConcurrentPutGet: many goroutines hammering overlapping keys
// must stay consistent — every hit returns exactly what some Put stored.
func TestDiskConcurrentPutGet(t *testing.T) {
	d, err := Open(t.TempDir(), testEngine)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("k%d", i%5)
				want := []byte(fmt.Sprintf(`"v%d"`, i%5))
				if err := d.Put(key, want); err != nil {
					t.Error(err)
					return
				}
				if got, ok := d.Get(key); ok && !bytes.Equal(got, want) {
					t.Errorf("Get(%s) = %q, want %q", key, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
