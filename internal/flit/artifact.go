package flit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exec"
	"repro/internal/link"
	"repro/internal/store"
)

// ArtifactVersion is the serialization format version of shard artifacts.
const ArtifactVersion = 1

// EngineVersion identifies the evaluation semantics of this build: two
// engines may exchange shard artifacts only if they would compute
// bit-identical results for every key. Bump it whenever the simulated
// toolchain or the cache key format changes meaning — merge rejects
// artifacts from any other engine version, because replaying foreign
// results as if they were local computations would silently violate the
// byte-identity guarantee. (The cost model needs no bump: runtimes are
// derived where they are reported, never exchanged.)
// (v3: injected-compilation cache keys render the epsilon as its IEEE-754
// bit pattern instead of a rounded decimal, so artifacts from earlier
// engines address injected cells by strings this build never produces.)
// (v4: a full build's plan key names no file and no plan key carries a
// link driver, so earlier engines' matrix, baseline and injection records
// sit under keys this build never looks up.)
const EngineVersion = "flit-engine/4"

// Artifact is the self-describing result of one shard of a distributed
// run: every build/run result the shard computed, keyed by
// link.Plan.Key + TestKey (the build/run cache's own address
// space), plus enough metadata — format version, engine version, the
// canonical command, the shard coordinates — for `flit merge` to validate
// that a set of artifacts belongs together and to replay the original
// command with every expensive evaluation answered from the merged cache.
// Runtimes are not recorded: the cost model derives them from the plan.
// Artifacts written before that carry a "costs" list, which decoding
// skips.
//
// Floating-point values are serialized as IEEE-754 bit patterns, not
// decimal JSON numbers: results may legitimately be NaN or ±Inf (the
// Laghos NaN-bug study exists because of them), and byte-identity of the
// merged output requires bit-identity of every replayed value. An artifact
// carries no timestamp: the same shard of the same command writes the same
// bytes wherever and whenever it runs.
type Artifact struct {
	Version int         `json:"version"`
	Engine  string      `json:"engine"`
	Command []string    `json:"command,omitempty"`
	Shard   exec.Shard  `json:"shard"`
	Runs    []RunRecord `json:"runs"`
}

// RunRecord is one memoized test execution.
type RunRecord struct {
	Key string `json:"key"`
	// Vec holds the result vector as IEEE-754 bit patterns; IsVec
	// distinguishes an empty vector from a scalar result.
	Vec    []uint64 `json:"vec,omitempty"`
	IsVec  bool     `json:"is_vec,omitempty"`
	Scalar uint64   `json:"scalar,omitempty"`
	// Err is the memoized run error's text; Segfault marks the ABI-crash
	// identity (link.ErrSegfault) so errors.Is keeps working after replay.
	Err      string `json:"err,omitempty"`
	Segfault bool   `json:"segfault,omitempty"`
}

// replayedError stands in for a memoized run error restored from an
// artifact: same text, and the same errors.Is identity for the one error
// the drivers branch on (the mixed-binary segfault).
type replayedError struct {
	msg      string
	segfault bool
}

func (e *replayedError) Error() string { return e.msg }

func (e *replayedError) Is(target error) bool {
	return e.segfault && target == link.ErrSegfault
}

// recordOf serializes one memoized run entry: floats become IEEE-754 bit
// patterns, errors keep their text and segfault identity.
func recordOf(key string, v runVal) RunRecord {
	r := RunRecord{Key: key}
	if v.res.IsVec() {
		r.IsVec = true
		r.Vec = make([]uint64, len(v.res.Vec))
		for i, x := range v.res.Vec {
			r.Vec[i] = math.Float64bits(x)
		}
	} else {
		r.Scalar = math.Float64bits(v.res.Scalar)
	}
	if v.err != nil {
		r.Err = v.err.Error()
		r.Segfault = errors.Is(v.err, link.ErrSegfault)
	}
	return r
}

// Export snapshots every completed entry of the cache into an artifact.
// The records are sorted by key, so the same cache contents always
// serialize to the same bytes.
func (c *Cache) Export(shard exec.Shard, command []string) *Artifact {
	a := &Artifact{
		Version: ArtifactVersion,
		Engine:  EngineVersion,
		Command: command,
		Shard:   shard,
		Runs:    []RunRecord{},
	}
	if c == nil {
		return a
	}
	c.runs.Each(func(key string, v runVal, _ error) {
		a.Runs = append(a.Runs, recordOf(key, v))
	})
	sort.Slice(a.Runs, func(i, j int) bool { return a.Runs[i].Key < a.Runs[j].Key })
	return a
}

// Merge seeds the cache with the union of a complete shard set, validated
// by ValidateShardSet (every artifact from this engine version, one
// command, a complete partition, no key recorded with two bit patterns).
// Nothing is seeded unless the whole set is valid. Replaying the set's
// recorded command then answers every evaluation from the cache,
// byte-identical to an unsharded run. Call it before the run and before
// WarmStart.
func (c *Cache) Merge(arts ...*Artifact) error {
	if _, err := foldShardSet(arts); err != nil {
		return fmt.Errorf("merging shard artifacts: %w", err)
	}
	if c == nil {
		return errNilCache
	}
	for _, a := range arts {
		c.seed(a)
	}
	return nil
}

var errNilCache = errors.New("flit: seeding a nil cache")

// seed installs a checked artifact's records as completed cache entries.
// Existing entries are never overwritten: within one folded set every copy
// of a key has the same bits, and an entry seeded earlier (a merged shard
// set ahead of the warm-start baseline) keeps answering, which Delta then
// compares bit-exactly against the baseline.
func (c *Cache) seed(a *Artifact) {
	for _, r := range a.Runs {
		c.runs.Seed(r.Key, runValOf(r), nil)
	}
}

// recordSet is the union of an artifact set's run records, keyed by run
// key. It points into the artifacts it folds instead of copying their
// records. Shards overlap on the cells they share (every shard runs the
// baseline compilation), which is sound only when each recorded the same
// bits there, so a key recorded with two bit patterns is refused. cmd is
// the first recorded command.
type recordSet struct {
	cmd  []string
	runs map[string]*RunRecord
}

func newRecordSet() *recordSet {
	return &recordSet{runs: map[string]*RunRecord{}}
}

// add folds one checked artifact into the set. On a refusal the set is
// left partly folded; every caller abandons it.
func (s *recordSet) add(a *Artifact) error {
	for i := range a.Runs {
		r := &a.Runs[i]
		if prev, ok := s.runs[r.Key]; ok {
			if !equalRecord(*prev, *r) {
				return fmt.Errorf("flit: artifact disagrees with an earlier artifact on run key %q", r.Key)
			}
			continue
		}
		s.runs[r.Key] = r
	}
	if s.cmd == nil {
		s.cmd = a.Command
	}
	return nil
}

// runValOf deserializes one run record back into the cache's value form:
// IEEE-754 bit patterns become floats, errors regain their text and — for
// the one error identity the drivers branch on — their errors.Is
// behavior. It is the exact inverse of recordOf, shared by artifact
// seeding and the persistent run store's decode path.
func runValOf(r RunRecord) runVal {
	v := runVal{}
	if r.IsVec {
		v.res.Vec = make([]float64, len(r.Vec))
		for i, bits := range r.Vec {
			v.res.Vec[i] = math.Float64frombits(bits)
		}
	} else {
		v.res.Scalar = math.Float64frombits(r.Scalar)
	}
	if r.Err != "" || r.Segfault {
		if r.Segfault && r.Err == link.ErrSegfault.Error() {
			v.err = link.ErrSegfault
		} else {
			v.err = &replayedError{msg: r.Err, segfault: r.Segfault}
		}
	}
	return v
}

// validate rejects run records whose fields contradict each other — shapes
// recordOf can never produce, so they mark a hand-edited, torn, or foreign
// file. Seeding one silently would drop data: a scalar-flagged record's
// vector is never read back, so v.Vec would vanish into a zero scalar.
func (r RunRecord) validate() error {
	if !r.IsVec && len(r.Vec) > 0 {
		return fmt.Errorf("flit: run record %q is flagged scalar but carries a %d-element vector", r.Key, len(r.Vec))
	}
	if r.IsVec && r.Scalar != 0 {
		return fmt.Errorf("flit: run record %q is flagged vector but carries a scalar value", r.Key)
	}
	return nil
}

// Check validates an artifact's format and engine versions and its
// structural integrity. A key appearing twice in one artifact marks a
// malformed (hand-edited, truncated-and-rejoined, or adversarial) file: a
// healthy export snapshots a map and can never produce duplicates, and
// seeding one silently would let whichever copy lands first answer every
// evaluation of that key — so duplicates are rejected outright, even when
// the copies agree. Internally inconsistent run records (a scalar-flagged
// record carrying a vector, or the reverse) are rejected the same way.
func (a *Artifact) Check() error {
	if a.Version != ArtifactVersion {
		return fmt.Errorf("flit: artifact format v%d, this build reads v%d", a.Version, ArtifactVersion)
	}
	if a.Engine != EngineVersion {
		return fmt.Errorf("flit: artifact from engine %q, this build is %q: results are not interchangeable",
			a.Engine, EngineVersion)
	}
	if err := a.Shard.Validate(); err != nil {
		return err
	}
	seen := make(map[string]bool, len(a.Runs))
	for _, r := range a.Runs {
		if err := r.validate(); err != nil {
			return err
		}
		if seen[r.Key] {
			return fmt.Errorf("flit: artifact records run key %q twice", r.Key)
		}
		seen[r.Key] = true
	}
	return nil
}

// ValidateShardSet checks that a set of artifacts is mergeable: every
// artifact passes Check, all record the same command, the shard
// coordinates form a complete partition — N artifacts covering indices
// 0..N-1 of a count-N sharding (a single unsharded artifact is the N=1
// case) — and no run key is recorded with two bit patterns.
// Merging an incomplete, mixed or self-contradicting set would replay a
// run that no unsharded execution could have produced.
func ValidateShardSet(arts []*Artifact) error {
	_, err := foldShardSet(arts)
	return err
}

// foldShardSet validates a shard set as ValidateShardSet does and returns
// the union of its records.
func foldShardSet(arts []*Artifact) (*recordSet, error) {
	if len(arts) == 0 {
		return nil, errors.New("flit: no shard artifacts to merge")
	}
	for i, a := range arts {
		if err := a.Check(); err != nil {
			return nil, fmt.Errorf("artifact %d: %w", i, err)
		}
		if !slices.Equal(a.Command, arts[0].Command) {
			return nil, fmt.Errorf("artifact %d records command %q, artifact 0 records %q",
				i, a.Command, arts[0].Command)
		}
	}
	// All artifacts must agree on the partition width before per-index
	// accounting means anything.
	count := arts[0].Shard.Count
	if count < 1 {
		count = 1
	}
	for i, a := range arts {
		c := a.Shard.Count
		if c < 1 {
			c = 1
		}
		if c != count {
			return nil, fmt.Errorf("artifact %d is shard %s of a %d-way sharding, artifact 0 is %d-way — refusing to merge mixed partitions",
				i, a.Shard, c, count)
		}
	}
	// Tally coverage of 0..count-1 and report every gap and every repeat
	// in one message: the coordinator (and a human re-running workers)
	// needs to know exactly which indices to produce or discard, not just
	// that the set is wrong.
	tally := make([]int, count)
	for _, a := range arts {
		tally[a.Shard.Index]++
	}
	var missing, duplicated []int
	for i, n := range tally {
		switch {
		case n == 0:
			missing = append(missing, i)
		case n > 1:
			duplicated = append(duplicated, i)
		}
	}
	if len(missing) > 0 || len(duplicated) > 0 {
		return nil, fmt.Errorf("flit: incomplete %d-way shard partition: %d artifacts given, missing shard indices %s, duplicated shard indices %s",
			count, len(arts), formatIndices(missing), formatIndices(duplicated))
	}
	set := newRecordSet()
	for i, a := range arts {
		if err := set.add(a); err != nil {
			return nil, fmt.Errorf("artifact %d: %w", i, err)
		}
	}
	return set, nil
}

// formatIndices renders a shard-index list for partition diagnostics;
// an empty list reads as "none" so the message stays scannable.
func formatIndices(idx []int) string {
	if len(idx) == 0 {
		return "none"
	}
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = strconv.Itoa(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// WriteJSON serializes the artifact (indented, key-sorted, deterministic).
func (a *Artifact) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(a)
}

// ReadArtifact parses one artifact from JSON. The stream must hold
// exactly one JSON object: trailing data after it — two artifacts
// concatenated, a file truncated and rejoined, appended garbage — is
// rejected rather than silently parsing the first object and discarding
// the rest, which would replay a partial result set as if it were whole.
//
// encoding/json defines what the bytes mean. The input is read once and
// decoded by the schema-specific record decoder (recdec.go), which accepts
// only input on which encoding/json yields the same Artifact; whatever it
// declines is decoded by encoding/json from the same bytes. Either way the
// result, and for rejected input the error text, is encoding/json's.
func ReadArtifact(r io.Reader) (*Artifact, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// Size the buffer up front when the reader knows its length (a
		// bytes.Reader does): growing it while reading a 20 MB artifact
		// would allocate the input several times over.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("flit: reading artifact: %w", err)
	}
	return decodeArtifact(buf.Bytes())
}

// decodeArtifact decodes one whole artifact on the fast path, falling
// back to decodeArtifactJSON for whatever the record decoder declines.
func decodeArtifact(data []byte) (*Artifact, error) {
	if a, ok := decodeFast(data, (*recDecoder).artifact); ok {
		return &a, nil
	}
	return decodeArtifactJSON(data)
}

// decodeArtifactJSON is the reference decoding of an artifact:
// encoding/json's stream decoder, then a check that nothing but whitespace
// follows the object.
func decodeArtifactJSON(data []byte) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("flit: reading artifact: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("flit: reading artifact: trailing data after the JSON object")
	}
	return &a, nil
}

// WriteArtifactFile durably writes the artifact to path: the JSON is
// staged in a temp file, fsynced, and renamed into place, so a crash
// mid-write leaves the previous file (or nothing) — never a truncated
// artifact that poisons the warm starts and merges reading it later.
func WriteArtifactFile(a *Artifact, path string) error {
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		return err
	}
	return store.WriteFileAtomic(path, buf.Bytes())
}

// ReadArtifactFile reads one artifact from path, as ReadArtifact does.
func ReadArtifactFile(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		// A file that cannot be opened is reported bare, one that cannot
		// be read as an artifact read error, as when the file was streamed.
		var pe *fs.PathError
		if errors.As(err, &pe) && pe.Op == "open" {
			return nil, err
		}
		return nil, fmt.Errorf("%s: flit: reading artifact: %w", path, err)
	}
	a, err := decodeArtifact(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// ReadArtifactFiles reads the artifacts at paths in order, skipping blank
// entries (a comma-split flag value may contain them).
func ReadArtifactFiles(paths []string) ([]*Artifact, error) {
	arts := make([]*Artifact, 0, len(paths))
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		a, err := ReadArtifactFile(p)
		if err != nil {
			return nil, err
		}
		arts = append(arts, a)
	}
	return arts, nil
}
