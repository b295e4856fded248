package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FormatVersion is the on-disk layout version of a Disk store. Bump it
// whenever the manifest, the segment format, or the directory layout
// changes shape; a store written by any other format version is rejected
// at Open, like a foreign engine's. Version 1 kept one JSON file per key
// under objects/; version 2 appends records to segments.
const FormatVersion = 2

// manifestName is the store manifest at the root of a Disk store's
// directory: the fence that keeps two engines whose results are not
// interchangeable from silently sharing one result namespace.
const manifestName = "store.json"

// segmentsDir holds the append-only segment files, segmentExt marks them
// (anything else in the directory is debris, e.g. an interrupted
// compaction's temp file), and segmentMagic opens every segment.
const (
	segmentsDir  = "segments"
	segmentExt   = ".seg"
	segmentMagic = "FLITSEG\x02"
)

// Bounds on what one segment may declare. A scan stops at the first
// record that exceeds them, so no length field read from disk can make a
// reader allocate more than the file holds; Put refuses anything larger,
// so every record it writes stays readable.
const (
	maxKeyLen  = 1 << 20
	maxDataLen = DefaultMaxBody
)

// recordHeaderLen is a record's fixed prefix: key length, payload length
// (both little-endian uint32) and the record's SHA-256.
const recordHeaderLen = 4 + 4 + sha256.Size

// manifest is the store's self-description. Engine carries the same
// version string shard artifacts are fenced by (flit.EngineVersion): two
// processes may share a store only if they would compute bit-identical
// results for every key.
type manifest struct {
	Version int    `json:"store_version"`
	Engine  string `json:"engine"`
}

// Disk is the on-disk Store backend, a directory of append-only
// segments:
//
//	DIR/store.json                manifest: layout version + engine fence
//	DIR/segments/<time>-<r>.seg   one segment per writing handle
//
// A segment is the magic "FLITSEG\x02", the engine string (uint32 length
// + bytes), then records:
//
//	[keyLen u32][dataLen u32][sum][key][data]
//
// where sum is the SHA-256 of the two length fields, the key and the
// payload. Segment names sort by creation time.
//
// Each handle creates its own segment on its first Put (O_EXCL|O_APPEND)
// and appends every record with one write(2): no temp file, no rename,
// no fsync, no user-space buffer, so another handle opened a moment
// later already sees every returned Put. Open streams every segment once,
// oldest first, into an in-memory index keyed by the SHA-256 of each key;
// a later record of a key overrides an earlier one, and a segment's scan
// stops at its first torn or implausible record. Get is one ReadAt that
// re-verifies the stored key byte for byte and the record's SHA-256.
//
// Durability: a returned Put is in the kernel, so it survives the crash
// of the writing process but not a power loss or kernel crash. Whatever
// is lost or damaged reads as a miss — a Get never returns bytes that
// were not Put under exactly that key — and the next Put of the key
// writes a newer record that wins. Records another process appends after
// this handle's Open are misses to this handle. GC compacts the segments.
type Disk struct {
	dir    string
	engine string
	// corrupt counts Get calls that found a record but could not trust
	// it — the observability hook distinguishing "cold" from "rotting".
	corrupt atomic.Int64

	mu    sync.Mutex
	segs  []*os.File // every indexed segment, in creation order
	index map[[sha256.Size]byte]loc
	w     *os.File // this handle's own segment, nil until the first Put
	wseg  int      // w's position in segs
}

// loc is where one record lives and what its header declares.
type loc struct {
	seg     int // position in the handle's (or the survey's) segment list
	off     int64
	keyLen  uint32
	dataLen uint32
	sum     [sha256.Size]byte
}

func (l loc) size() int64 { return recordHeaderLen + int64(l.keyLen) + int64(l.dataLen) }

// Open opens (creating if absent) the store rooted at dir for an engine
// version and indexes its segments. A directory already claimed by a
// different engine or layout version is rejected — replaying a foreign
// engine's results as local computations would silently break the
// byte-identity guarantee, exactly like merging a foreign artifact. A
// directory whose manifest exists but does not parse is also rejected: it
// may be someone else's data, and a store that cannot prove ownership must
// not write into it.
func Open(dir, engine string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	mpath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(mpath)
	switch {
	case os.IsNotExist(err):
		m := manifest{Version: FormatVersion, Engine: engine}
		buf, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		if err := WriteFileAtomic(mpath, buf); err != nil {
			return nil, fmt.Errorf("store: writing manifest: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	default:
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("store: %s has an unreadable manifest (%v) — refusing to treat it as a run store", dir, err)
		}
		if m.Engine != engine {
			return nil, fmt.Errorf("store: %s was written by engine %q, this build is %q: results are not interchangeable; "+
				"the store only caches recomputable results, so delete the directory and the next run rebuilds it", dir, m.Engine, engine)
		}
		if m.Version == 1 {
			return nil, fmt.Errorf("store: %s is a layout v1 run store (one file per entry under objects/), this build reads layout v%d (append-only segments); "+
				"the store only caches recomputable results, so delete the directory and the next run rebuilds it", dir, FormatVersion)
		}
		if m.Version != FormatVersion {
			return nil, fmt.Errorf("store: %s uses layout v%d, this build reads v%d", dir, m.Version, FormatVersion)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	d := &Disk{dir: dir, engine: engine}
	if err := d.load(); err != nil {
		return nil, err
	}
	return d, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// Engine returns the engine version the store is fenced to.
func (d *Disk) Engine() string { return d.engine }

// load (re)builds the index from every segment on disk and forgets this
// handle's own segment, so the next Put starts a fresh one. Files of a
// previous index are left to the runtime's finalizers rather than closed:
// a Get racing the reload may still be reading one.
func (d *Disk) load() error {
	names, _, err := d.listSegments()
	if err != nil {
		return err
	}
	index := make(map[[sha256.Size]byte]loc)
	var segs []*os.File
	for _, name := range names {
		f, err := os.Open(filepath.Join(d.dir, segmentsDir, name))
		if os.IsNotExist(err) {
			continue // compacted away since the listing
		}
		var info os.FileInfo
		if err == nil {
			if info, err = f.Stat(); err != nil {
				f.Close()
			}
		}
		if err != nil {
			for _, f := range segs {
				f.Close()
			}
			return fmt.Errorf("store: opening segment: %w", err)
		}
		seg := len(segs)
		found := false
		scanSegment(f, info.Size(), d.engine, false, func(r record) {
			r.seg = seg
			index[r.id] = r.loc
			found = true
		})
		if !found {
			f.Close()
			continue
		}
		segs = append(segs, f)
	}
	d.mu.Lock()
	d.segs, d.index, d.w = segs, index, nil
	d.mu.Unlock()
	return nil
}

// listSegments returns the segment file names in creation order, plus
// any other file in the segments directory (debris).
func (d *Disk) listSegments() (segs, debris []string, err error) {
	ents, err := os.ReadDir(filepath.Join(d.dir, segmentsDir))
	if err != nil {
		return nil, nil, fmt.Errorf("store: listing segments: %w", err)
	}
	for _, e := range ents {
		switch {
		case e.IsDir():
		case strings.HasSuffix(e.Name(), segmentExt):
			segs = append(segs, e.Name())
		default:
			debris = append(debris, e.Name())
		}
	}
	sort.Strings(segs)
	return segs, debris, nil
}

// Get reads the record stored under key. Every failure mode — no record,
// a record cut short, lengths, key or SHA-256 that disagree — is a miss;
// the ones that found a record are additionally counted as corrupt.
func (d *Disk) Get(key string) ([]byte, bool) {
	rec, ok := d.record(key)
	if !ok {
		return nil, false
	}
	return rec[recordHeaderLen+len(key):], true
}

// record reads and verifies the whole record stored under key: what Get
// returns the payload of, and what Handler serves verbatim.
func (d *Disk) record(key string) ([]byte, bool) {
	id := sha256.Sum256([]byte(key))
	d.mu.Lock()
	l, ok := d.index[id]
	var f *os.File
	if ok {
		f = d.segs[l.seg]
	}
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	rec := make([]byte, l.size())
	if _, err := f.ReadAt(rec, l.off); err != nil {
		d.corrupt.Add(1)
		return nil, false
	}
	if _, ok := verifyRecord(rec, key, l.sum); !ok {
		d.corrupt.Add(1)
		return nil, false
	}
	return rec, true
}

// Put appends a record of data under key to this handle's segment, which
// it creates on the first call. The record reaches the kernel in one
// write(2) before Put returns, so any handle opened afterwards — in this
// process or another — sees it, and a crash of this process cannot lose
// it; a power loss can, and then the key reads as a miss. Payloads are
// opaque bytes.
func (d *Disk) Put(key string, data []byte) error {
	return d.appendRecord(key, encodeRecord(key, data))
}

// appendRecord writes rec, a framed record of key, to this handle's segment
// and indexes it. A key or payload past the scan bounds is refused.
func (d *Disk) appendRecord(key string, rec []byte) error {
	dataLen := len(rec) - recordHeaderLen - len(key)
	if len(key) > maxKeyLen || dataLen > maxDataLen {
		return fmt.Errorf("store: entry too large (key %d bytes, payload %d bytes)", len(key), dataLen)
	}
	l := loc{keyLen: uint32(len(key)), dataLen: uint32(dataLen)}
	copy(l.sum[:], rec[8:recordHeaderLen])
	id := sha256.Sum256([]byte(key))

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.w == nil {
		if err := d.createSegment(); err != nil {
			return err
		}
	}
	if _, err := d.w.Write(rec); err != nil {
		// A partial record ends the segment for every scan; later records
		// go to a fresh one.
		d.w = nil
		return fmt.Errorf("store: appending to segment: %w", err)
	}
	// O_APPEND wrote at the file's true end; the offset after the write
	// places the record even if the file changed size underneath us.
	end, err := d.w.Seek(0, io.SeekCurrent)
	if err != nil {
		d.w = nil
		return fmt.Errorf("store: appending to segment: %w", err)
	}
	l.seg, l.off = d.wseg, end-int64(len(rec))
	d.index[id] = l
	return nil
}

// createSegment creates this handle's own segment and writes its header.
// The caller holds d.mu.
func (d *Disk) createSegment() error {
	for attempt := 0; ; attempt++ {
		path := filepath.Join(d.dir, segmentsDir, segmentName())
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if os.IsExist(err) && attempt < 8 {
			continue
		}
		if err != nil {
			return fmt.Errorf("store: creating segment: %w", err)
		}
		if _, err := f.Write(segmentHeader(d.engine)); err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("store: creating segment: %w", err)
		}
		d.segs = append(d.segs, f)
		d.wseg, d.w = len(d.segs)-1, f
		return nil
	}
}

// segmentName is a fresh segment file name that sorts by creation time.
func segmentName() string {
	return fmt.Sprintf("%020d-%08x%s", time.Now().UnixNano(), rand.Uint32(), segmentExt)
}

func segmentHeader(engine string) []byte {
	buf := make([]byte, 0, len(segmentMagic)+4+len(engine))
	buf = append(buf, segmentMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(engine)))
	return append(buf, engine...)
}

// encodeRecord frames one record: lengths, SHA-256, key, payload.
func encodeRecord(key string, data []byte) []byte {
	rec := make([]byte, recordHeaderLen+len(key)+len(data))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(data)))
	copy(rec[recordHeaderLen:], key)
	copy(rec[recordHeaderLen+len(key):], data)
	h := sha256.New()
	h.Write(rec[:8])
	h.Write(rec[recordHeaderLen:])
	h.Sum(rec[8:8])
	return rec
}

// verifyRecord is the one checksum rule of a record, whether it was read
// back from a segment (sum is what the index holds) or arrived over the
// wire (sum is what the record declares, see decodeRecord): the record
// must frame exactly key and a payload filling the rest, and its SHA-256
// must be sum. It returns the payload.
func verifyRecord(rec []byte, key string, sum [sha256.Size]byte) ([]byte, bool) {
	if len(rec) < recordHeaderLen+len(key) ||
		binary.LittleEndian.Uint32(rec[0:]) != uint32(len(key)) ||
		int(binary.LittleEndian.Uint32(rec[4:])) != len(rec)-recordHeaderLen-len(key) ||
		!bytes.Equal(rec[8:recordHeaderLen], sum[:]) ||
		string(rec[recordHeaderLen:recordHeaderLen+len(key)]) != key {
		return nil, false
	}
	h := sha256.New()
	h.Write(rec[:8])
	h.Write(rec[recordHeaderLen:])
	var got [sha256.Size]byte
	if h.Sum(got[:0]); got != sum {
		return nil, false
	}
	return rec[recordHeaderLen+len(key):], true
}

// decodeRecord checks one record that arrived over the wire against the
// key asked for and the SHA-256 it declares, and returns its payload.
// Truncation, trailing bytes, lengths past the body, another key and a
// flipped byte all fail; this is the trust boundary FuzzRemoteDecode
// hammers.
func decodeRecord(rec []byte, key string) ([]byte, bool) {
	if len(rec) < recordHeaderLen {
		return nil, false
	}
	return verifyRecord(rec, key, [sha256.Size]byte(rec[8:recordHeaderLen]))
}

// record is one framed record found by a segment scan.
type record struct {
	loc
	id [sha256.Size]byte // SHA-256 of the key
	ok bool              // sum verified (verifying scans only)
}

// scanSegment streams one segment of size bytes from r and calls visit
// for every framed record, in append order. It returns the offset where
// decoding stopped: size for an intact segment, less for a torn or
// damaged tail, 0 for a header that is not this engine's. Every visited
// record lies within size, and the scan allocates nothing sized by a
// length read from disk. With verify set it also hashes each record and
// reports whether its SHA-256 holds; otherwise payloads are skipped
// unread and Get verifies them instead.
func scanSegment(r io.Reader, size int64, engine string, verify bool, visit func(record)) int64 {
	br := bufio.NewReaderSize(r, int(min(max(size, 16), 64<<10)))
	head := make([]byte, len(segmentMagic)+4)
	if size < int64(len(head)) {
		return 0
	}
	if _, err := io.ReadFull(br, head); err != nil || string(head[:len(segmentMagic)]) != segmentMagic {
		return 0
	}
	if binary.LittleEndian.Uint32(head[len(segmentMagic):]) != uint32(len(engine)) ||
		int64(len(head)+len(engine)) > size {
		return 0
	}
	got := make([]byte, len(engine))
	if _, err := io.ReadFull(br, got); err != nil || string(got) != engine {
		return 0
	}
	off := int64(len(head) + len(engine))
	idHash, sumHash := sha256.New(), sha256.New()
	var hdr [recordHeaderLen]byte
	for size-off >= recordHeaderLen {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			break
		}
		r := record{loc: loc{
			off:     off,
			keyLen:  binary.LittleEndian.Uint32(hdr[0:]),
			dataLen: binary.LittleEndian.Uint32(hdr[4:]),
		}}
		if r.keyLen > maxKeyLen || r.dataLen > maxDataLen || r.size() > size-off {
			break
		}
		copy(r.sum[:], hdr[8:])
		idHash.Reset()
		var dataHash hash.Hash
		if verify {
			sumHash.Reset()
			sumHash.Write(hdr[:8])
			dataHash = sumHash
		}
		if !consume(br, int64(r.keyLen), idHash, dataHash) || !consume(br, int64(r.dataLen), dataHash) {
			break
		}
		idHash.Sum(r.id[:0])
		if verify {
			var got [sha256.Size]byte
			sumHash.Sum(got[:0])
			r.ok = got == r.sum
		}
		visit(r)
		off += r.size()
	}
	return off
}

// consume reads n bytes from br into every non-nil hash (or discards
// them), using only br's own buffer.
func consume(br *bufio.Reader, n int64, hs ...hash.Hash) bool {
	for n > 0 {
		b, err := br.Peek(int(min(n, int64(br.Size()))))
		if len(b) == 0 {
			return err == nil
		}
		for _, h := range hs {
			if h != nil {
				h.Write(b)
			}
		}
		br.Discard(len(b))
		n -= int64(len(b))
	}
	return true
}

// CorruptReads reports how many Get calls found a record they could not
// trust since this handle was opened.
func (d *Disk) CorruptReads() int64 { return d.corrupt.Load() }

// Stats is one verifying pass over the store's segments: what `flit
// store stats` prints. Entries counts keys with an intact record; Bytes
// is the segments' total size on disk; Corrupt counts damaged spots —
// records whose SHA-256 fails, torn or unreadable segment tails, foreign
// segment headers, and stray files — which never serve a hit and which GC
// reclaims.
type Stats struct {
	Engine  string
	Entries int
	Bytes   int64
	Corrupt int
}

// Stats scans and verifies every segment.
func (d *Disk) Stats() (Stats, error) {
	sv, err := d.survey()
	if err != nil {
		return Stats{Engine: d.engine}, err
	}
	return Stats{Engine: d.engine, Entries: len(sv.live), Bytes: sv.bytes, Corrupt: len(sv.corrupt)}, nil
}

// GCResult reports one garbage-collection pass.
type GCResult struct {
	// Kept is how many valid entries survive.
	Kept int
	// Pruned names what the pass drops: first every damaged spot, as
	// "segments/<segment>@<offset>", then the entries the bounds evict,
	// oldest first, each as the hex SHA-256 of its key. With dry-run GC
	// nothing is dropped.
	Pruned []string
	// PrunedBytes is how much smaller the segments get: damaged and
	// evicted records plus superseded copies of kept keys.
	PrunedBytes int64
	// Corrupt is how many of the pruned names are damaged spots rather
	// than entries evicted by the bounds.
	Corrupt int
}

// GC compacts the store down to the given bounds. It drops every damaged
// record and every superseded copy of a key, then the oldest entries — in
// append order, so two planning passes over the same segments always
// agree — until at most maxEntries entries and maxBytes record bytes
// remain (either bound <= 0 is unlimited). Applying writes the survivors,
// oldest first, into one new segment (temp file + fsync + rename), then
// removes the old segments and reindexes this handle. Records appended by
// other handles while GC runs may be lost, which costs them a
// recomputation. With apply false the pass only plans; nothing changes.
func (d *Disk) GC(maxEntries int, maxBytes int64, apply bool) (*GCResult, error) {
	sv, err := d.survey()
	if err != nil {
		return nil, err
	}
	res := &GCResult{Pruned: sv.corrupt, Corrupt: len(sv.corrupt)}
	var bytes int64
	for _, r := range sv.live {
		bytes += r.size()
	}
	live := sv.live
	for len(live) > 0 &&
		((maxEntries > 0 && len(live) > maxEntries) || (maxBytes > 0 && bytes > maxBytes)) {
		res.Pruned = append(res.Pruned, hex.EncodeToString(live[0].id[:]))
		bytes -= live[0].size()
		live = live[1:]
	}
	res.Kept = len(live)
	newSize := int64(0)
	if len(live) > 0 {
		newSize = int64(len(segmentHeader(d.engine))) + bytes
	}
	res.PrunedBytes = sv.bytes - newSize
	if !apply || (res.PrunedBytes == 0 && len(sv.segs) <= 1 && len(sv.debris) == 0) {
		return res, nil
	}
	if len(live) > 0 {
		if err := d.writeCompacted(sv.segs, live); err != nil {
			return res, err
		}
	}
	for _, name := range append(sv.segs, sv.debris...) {
		if err := os.Remove(filepath.Join(d.dir, segmentsDir, name)); err != nil && !os.IsNotExist(err) {
			return res, fmt.Errorf("store: gc removing %s: %w", name, err)
		}
	}
	return res, d.load()
}

// writeCompacted writes the live records, in order, into one new segment.
func (d *Disk) writeCompacted(segs []string, live []record) error {
	files := make(map[int]*os.File)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	path := filepath.Join(d.dir, segmentsDir, segmentName())
	return writeAtomic(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		bw.Write(segmentHeader(d.engine))
		for _, r := range live {
			f := files[r.seg]
			if f == nil {
				var err error
				if f, err = os.Open(filepath.Join(d.dir, segmentsDir, segs[r.seg])); err != nil {
					return fmt.Errorf("store: gc reading segment: %w", err)
				}
				files[r.seg] = f
			}
			rec := make([]byte, r.size())
			if _, err := f.ReadAt(rec, r.off); err != nil {
				return fmt.Errorf("store: gc reading segment: %w", err)
			}
			key := string(rec[recordHeaderLen : recordHeaderLen+r.keyLen])
			if _, ok := verifyRecord(rec, key, r.sum); !ok {
				return fmt.Errorf("store: gc: segment %s changed under compaction", segs[r.seg])
			}
			bw.Write(rec)
		}
		return bw.Flush()
	})
}

// survey is one verifying pass over the segments directory.
type survey struct {
	segs    []string // segment names, in creation order
	debris  []string // other files in the directory
	bytes   int64    // total size of segs
	live    []record // seg indexes segs
	corrupt []string
}

// survey reads and verifies every segment. live is the newest intact
// record of each key, in append order; corrupt names every damaged spot.
func (d *Disk) survey() (*survey, error) {
	segs, debris, err := d.listSegments()
	if err != nil {
		return nil, err
	}
	sv := &survey{debris: debris}
	for _, name := range debris {
		sv.corrupt = append(sv.corrupt, filepath.Join(segmentsDir, name)+"@0")
	}
	var all []record
	newest := make(map[[sha256.Size]byte]int)
	for _, name := range segs {
		f, err := os.Open(filepath.Join(d.dir, segmentsDir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("store: reading segment: %w", err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: reading segment: %w", err)
		}
		seg := len(sv.segs)
		sv.segs = append(sv.segs, name)
		sv.bytes += info.Size()
		spot := func(off int64) string { return fmt.Sprintf("%s@%d", filepath.Join(segmentsDir, name), off) }
		end := scanSegment(f, info.Size(), d.engine, true, func(r record) {
			if !r.ok {
				sv.corrupt = append(sv.corrupt, spot(r.off))
				return
			}
			r.seg = seg
			newest[r.id] = len(all)
			all = append(all, r)
		})
		f.Close()
		if end < info.Size() {
			sv.corrupt = append(sv.corrupt, spot(end))
		}
	}
	for i, r := range all {
		if newest[r.id] == i {
			sv.live = append(sv.live, r)
		}
	}
	return sv, nil
}
