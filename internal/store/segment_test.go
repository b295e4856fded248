package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDiskTornTail: a crash can cut a segment anywhere inside its last
// record. At every such cut, every earlier key still hits with identical
// bytes and the torn key misses.
func TestDiskTornTail(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir)
	payload := func(i int) []byte { return []byte(fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, strings.Repeat("x", i))) }
	const n = 5
	for i := 0; i < n; i++ {
		if err := d.Put(fmt.Sprintf("key-%d", i), payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	path, off, size := recordOf(t, d, fmt.Sprintf("key-%d", n-1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != off+size {
		t.Fatalf("last record ends at %d, segment is %d bytes", off+size, len(raw))
	}
	for cut := off; cut < off+size; cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		h := mustOpen(t, dir)
		for i := 0; i < n-1; i++ {
			if got, ok := h.Get(fmt.Sprintf("key-%d", i)); !ok || !bytes.Equal(got, payload(i)) {
				t.Fatalf("cut at %d: key-%d = %q, %v", cut, i, got, ok)
			}
		}
		if got, ok := h.Get(fmt.Sprintf("key-%d", n-1)); ok {
			t.Fatalf("cut at %d: torn record served a hit: %q", cut, got)
		}
	}
}

// killChildEnv names the directory a re-executed test binary writes to in
// TestDiskKilledWriterKeepsAcknowledgedPuts.
const killChildEnv = "STORE_KILL_CHILD_DIR"

func killPayload(key string) []byte {
	return []byte(fmt.Sprintf(`{"key":%q,"pad":"%s"}`, key, strings.Repeat("p", len(key)*7)))
}

// TestDiskKillChild is the child half of the kill test: it Puts keys in a
// loop and prints each key once its Put has returned. Run directly, it
// skips.
func TestDiskKillChild(t *testing.T) {
	dir := os.Getenv(killChildEnv)
	if dir == "" {
		t.Skip("child process of TestDiskKilledWriterKeepsAcknowledgedPuts")
	}
	d, err := Open(dir, testEngine)
	if err != nil {
		fmt.Println("open:", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		key := "acked-" + strconv.Itoa(i)
		if err := d.Put(key, killPayload(key)); err != nil {
			fmt.Println("put:", err)
			os.Exit(1)
		}
		fmt.Println(key)
	}
}

// TestDiskKilledWriterKeepsAcknowledgedPuts: SIGKILL a process in the
// middle of a Put loop. Every Put it acknowledged must hit, with its exact
// bytes, for the next process.
func TestDiskKilledWriterKeepsAcknowledgedPuts(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDiskKillChild$")
	cmd.Env = append(os.Environ(), killChildEnv+"="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	stuck := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer stuck.Stop()
	// Keep reading after the kill: every line already in the pipe is a
	// Put that returned before the process died.
	var acked []string
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "acked-") {
			cmd.Process.Kill()
			t.Fatalf("child failed: %s", line)
		}
		acked = append(acked, line)
		if len(acked) == 300 {
			cmd.Process.Signal(syscall.SIGKILL)
		}
	}
	cmd.Wait()
	if len(acked) < 300 {
		t.Fatalf("child acknowledged only %d Puts before exiting", len(acked))
	}
	d := mustOpen(t, dir)
	for _, key := range acked {
		if got, ok := d.Get(key); !ok || !bytes.Equal(got, killPayload(key)) {
			t.Fatalf("acknowledged Put of %s lost by the kill: %q, %v", key, got, ok)
		}
	}
	if d.CorruptReads() != 0 {
		t.Errorf("%d corrupt reads after the kill", d.CorruptReads())
	}
}

// TestOpenRejectsV1Directory: a directory written by the file-per-entry
// layout is refused with an error that names both layouts and says the
// directory may be deleted, and Open writes nothing into it.
func TestOpenRejectsV1Directory(t *testing.T) {
	dir := t.TempDir()
	m := `{"store_version":1,"engine":"` + testEngine + `"}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(m), 0o644); err != nil {
		t.Fatal(err)
	}
	obj := filepath.Join(dir, "objects", "ab")
	if err := os.MkdirAll(obj, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(obj, "ab12"), []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, testEngine)
	if err == nil {
		t.Fatal("a v1 directory opened as a v2 store")
	}
	for _, want := range []string{"layout v1", "layout v2", "delete the directory"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("v1 refusal %q does not say %q", err, want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, segmentsDir)); !os.IsNotExist(err) {
		t.Errorf("refusing Open created %s (%v)", segmentsDir, err)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || string(raw) != m {
		t.Errorf("refusing Open rewrote the manifest: %q, %v", raw, err)
	}
}

// fuzzSegment frames records into a segment for engine: the shape Put
// writes, for the fuzzer's seeds.
func fuzzSegment(engine string, kv ...string) []byte {
	seg := segmentHeader(engine)
	for i := 0; i+1 < len(kv); i += 2 {
		seg = append(seg, encodeRecord(kv[i], []byte(kv[i+1]))...)
	}
	return seg
}

// FuzzSegmentDecode hammers the segment scan and Get — the trust boundary
// between whatever bytes sit in a segment file and the build/run cache.
// Arbitrary segment bytes must never panic, every record the scan indexes
// must lie inside the file (so no length read from disk makes a reader
// allocate more than the file holds), and Get may only return a hit when
// the file holds, at the indexed offset, a record of exactly that key whose
// SHA-256 verifies.
func FuzzSegmentDecode(f *testing.F) {
	const engine = "flit-engine/fuzz"
	valid := fuzzSegment(engine, "run\x00plan\x00key", `{"scalar":4609434218613702656}`, "k2", `[1,2]`)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                       // torn tail
	f.Add(fuzzSegment("flit-engine/other", "k", `1`))                 // foreign engine
	f.Add(fuzzSegment(engine, "k", `1`, "k", `2`))                    // a key rewritten
	f.Add(append(fuzzSegment(engine, "k", `1`), 0xff, 0xff, 0xff, 0)) // implausible key length
	flipped := append([]byte{}, valid...)
	flipped[len(segmentHeader(engine))+9] ^= 0x40 // sum bit flip
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		d, err := Open(dir, engine)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentsDir, segmentName()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := d.load(); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, l := range d.index {
			if l.off < 0 || l.off+l.size() > int64(len(raw)) {
				t.Fatalf("indexed record [%d, %d) lies outside the %d-byte file", l.off, l.off+l.size(), len(raw))
			}
			keys = append(keys, string(raw[l.off+recordHeaderLen:l.off+recordHeaderLen+int64(l.keyLen)]))
		}
		for _, key := range keys {
			data, ok := d.Get(key)
			if !ok {
				continue
			}
			// Re-verify the hit from the raw bytes, independently of Get.
			l := d.index[sha256.Sum256([]byte(key))]
			rec := raw[l.off : l.off+l.size()]
			if int(binary.LittleEndian.Uint32(rec)) != len(key) || string(rec[recordHeaderLen:recordHeaderLen+len(key)]) != key {
				t.Fatalf("hit for %q from a record of another key", key)
			}
			h := sha256.New()
			h.Write(rec[:8])
			h.Write([]byte(key))
			h.Write(data)
			if !bytes.Equal(h.Sum(nil), rec[8:recordHeaderLen]) {
				t.Fatalf("hit for %q whose SHA-256 does not verify", key)
			}
			if !bytes.Equal(data, rec[recordHeaderLen+len(key):]) {
				t.Fatalf("hit for %q returned bytes the record does not hold", key)
			}
		}
	})
}

// benchKey is shaped like a plan run key: about 1.1 KB of escaped
// per-file compilations, NUL-separated, unique per i.
func benchKey(i int) string {
	return fmt.Sprintf("lulesh\x00%s\x00Test%06d", strings.Repeat("file.cpp=g++|-O3|-mavx2 -mfma;", 36), i)
}

var benchPayload = []byte(`{"key":"k","test":"Example05","scalar":4609434218613702656,"values":[` +
	strings.Repeat(`4609434218613702656,`, 24) + `0]}`)

// BenchmarkDiskPut times one Put of a run-record-sized entry.
func BenchmarkDiskPut(b *testing.B) {
	d, err := Open(b.TempDir(), testEngine)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = benchKey(i)
	}
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put(keys[i], benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiskGet times one verified Get hit through a freshly opened
// handle, over 1,000 stored entries.
func BenchmarkDiskGet(b *testing.B) {
	dir := b.TempDir()
	w, err := Open(dir, testEngine)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = benchKey(i)
		if err := w.Put(keys[i], benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	d, err := Open(dir, testEngine)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get(keys[i%n]); !ok {
			b.Fatal("miss")
		}
	}
}
