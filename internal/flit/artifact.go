package flit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/link"
	"repro/internal/store"
)

// ArtifactVersion is the serialization format version of shard artifacts.
const ArtifactVersion = 1

// EngineVersion identifies the evaluation semantics of this build: two
// engines may exchange shard artifacts only if they would compute
// bit-identical results for every key. Bump it whenever the simulated
// toolchain, the cost model, or the cache key format changes meaning —
// merge rejects artifacts from any other engine version, because replaying
// foreign results as if they were local computations would silently violate
// the byte-identity guarantee.
// (v3: injected-compilation cache keys render the epsilon as its IEEE-754
// bit pattern instead of a rounded decimal, so artifacts from earlier
// engines address injected cells by strings this build never produces.)
const EngineVersion = "flit-engine/3"

// Artifact is the self-describing result of one shard of a distributed
// run: every build/run result and cost-model value the shard computed,
// keyed by link.Executable.Key + TestKey (the build/run cache's own
// address space), plus enough metadata — format version, engine version,
// the canonical command, the shard coordinates — for `flit merge` to
// validate that a set of artifacts belongs together and to replay the
// original command with every expensive evaluation answered from the
// merged cache.
//
// Floating-point values are serialized as IEEE-754 bit patterns, not
// decimal JSON numbers: results may legitimately be NaN or ±Inf (the
// Laghos NaN-bug study exists because of them), and byte-identity of the
// merged output requires bit-identity of every replayed value.
type Artifact struct {
	Version int      `json:"version"`
	Engine  string   `json:"engine"`
	Command []string `json:"command,omitempty"`
	// CreatedUnix is an optional wall-clock stamp (Unix seconds) recording
	// when the artifact was written. Export leaves it zero — exports stay
	// deterministic byte-for-byte — and the CLI stamps artifacts on write
	// (Stamp) so `flit gc` can order the generations of a campaign. It is
	// metadata only: merge, warm-start, and delta ignore it.
	CreatedUnix int64        `json:"created_unix,omitempty"`
	Shard       exec.Shard   `json:"shard"`
	Runs        []RunRecord  `json:"runs"`
	Costs       []CostRecord `json:"costs"`
}

// Stamp records the current wall-clock time as the artifact's creation
// time, for generation ordering under `flit gc`.
func (a *Artifact) Stamp() { a.CreatedUnix = time.Now().Unix() }

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

// CostRecord is one memoized cost-model value.
type CostRecord struct {
	Key  string `json:"key"`
	Cost uint64 `json:"cost"` // IEEE-754 bit pattern
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
		Costs:   []CostRecord{},
	}
	if c == nil {
		return a
	}
	c.runs.Each(func(key string, v runVal, _ error) {
		a.Runs = append(a.Runs, recordOf(key, v))
	})
	c.costs.Each(func(key string, v float64, err error) {
		if err != nil {
			// A cost entry can memoize a build error (key-first CostPlanned
			// on an unbuildable plan); exporting it would seed a future run
			// with a spurious zero-cost success.
			return
		}
		a.Costs = append(a.Costs, CostRecord{Key: key, Cost: math.Float64bits(v)})
	})
	sort.Slice(a.Runs, func(i, j int) bool { return a.Runs[i].Key < a.Runs[j].Key })
	sort.Slice(a.Costs, func(i, j int) bool { return a.Costs[i].Key < a.Costs[j].Key })
	return a
}

// Import seeds the cache with an artifact's records. Existing entries are
// never overwritten — on a deterministic engine an artifact entry and a
// local computation agree, so first-in wins is safe. It rejects artifacts
// from a different format or engine version: foreign results replayed as
// local ones would break the byte-identity guarantee silently.
func (c *Cache) Import(a *Artifact) error {
	if err := a.Check(); err != nil {
		return err
	}
	if c == nil {
		return errors.New("flit: importing into a nil cache")
	}
	for _, r := range a.Runs {
		c.runs.Seed(r.Key, runValOf(r), nil)
	}
	for _, co := range a.Costs {
		c.costs.Seed(co.Key, math.Float64frombits(co.Cost), nil)
	}
	return nil
}

// runValOf deserializes one run record back into the cache's value form:
// IEEE-754 bit patterns become floats, errors regain their text and — for
// the one error identity the drivers branch on — their errors.Is
// behavior. It is the exact inverse of recordOf, shared by artifact
// import and the persistent run store's decode path.
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
// file. Importing one silently would drop data: a scalar-flagged record's
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
// importing one silently would let whichever copy seeds first answer every
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
	clear(seen)
	for _, co := range a.Costs {
		if seen[co.Key] {
			return fmt.Errorf("flit: artifact records cost key %q twice", co.Key)
		}
		seen[co.Key] = true
	}
	return nil
}

// ValidateShardSet checks that a set of artifacts is mergeable: every
// artifact passes Check, all record the same command, and the shard
// coordinates form a complete partition — N artifacts covering indices
// 0..N-1 of a count-N sharding (a single unsharded artifact is the N=1
// case). Merging an incomplete or mixed set would replay a run that no
// unsharded execution could have produced.
func ValidateShardSet(arts []*Artifact) error {
	if len(arts) == 0 {
		return errors.New("flit: no shard artifacts to merge")
	}
	for i, a := range arts {
		if err := a.Check(); err != nil {
			return fmt.Errorf("artifact %d: %w", i, err)
		}
		if !slices.Equal(a.Command, arts[0].Command) {
			return fmt.Errorf("artifact %d records command %q, artifact 0 records %q",
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
			return fmt.Errorf("artifact %d is shard %s of a %d-way sharding, artifact 0 is %d-way — refusing to merge mixed partitions",
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
		return fmt.Errorf("flit: incomplete %d-way shard partition: %d artifacts given, missing shard indices %s, duplicated shard indices %s",
			count, len(arts), formatIndices(missing), formatIndices(duplicated))
	}
	return nil
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
func ReadArtifact(r io.Reader) (*Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
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

// ReadArtifactFile reads one artifact from path.
func ReadArtifactFile(path string) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	a, err := ReadArtifact(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
