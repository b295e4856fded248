package flit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/store"
)

// Delta detection for incremental campaigns.
//
// A long-lived campaign re-runs the same study as the toolchain, the
// matrix, or the workload drifts, warm-starting each run from the previous
// generation's artifacts. The DeltaReport is the answer to the question
// those re-runs exist to ask: *which* outputs changed against the warmed
// baseline? Two producers build one:
//
//   - Cache.Delta diffs a warm-started run (Cache.WarmStart) against its
//     baseline, counting by provenance the keys answered from the baseline
//     (hit-from-baseline) and those computed fresh or recomputed in verify
//     mode. The CLI writes it with -delta-out and summarizes it under
//     -stats;
//   - DiffArtifacts diffs two artifact sets offline, with no re-running
//     (the `flit delta` subcommand).
//
// Both end in the same bit-exact diff of two record unions (recordSet).
//
// Values are compared as IEEE-754 bit patterns, never as decimal floats: a
// variability monitor that rounded away low bits would miss exactly the
// deviations the FLiT study exists to catch, and NaN results (the Laghos
// NaN bug) must compare equal to themselves.

// DeltaChange is one key recorded by both the baseline and the current run
// whose values differ bit-exactly.
type DeltaChange struct {
	Key string    `json:"key"`
	Old RunRecord `json:"old"`
	New RunRecord `json:"new"`
}

// DeltaReport is the structured diff of a run (or artifact set) against a
// baseline artifact set: new keys the baseline did not record, dropped
// baseline keys the run never requested, and value-changed keys with both
// bit patterns. BaselineHits and Fresh are the warm-start provenance
// counters (zero for offline diffs); Unchanged counts keys present on both
// sides with identical bits.
type DeltaReport struct {
	Engine          string        `json:"engine"`
	BaselineCommand []string      `json:"baseline_command,omitempty"`
	Command         []string      `json:"command,omitempty"`
	New             []RunRecord   `json:"new"`
	Dropped         []RunRecord   `json:"dropped"`
	Changed         []DeltaChange `json:"changed"`
	Unchanged       int           `json:"unchanged"`
	BaselineHits    int           `json:"baseline_hits"`
	Fresh           int           `json:"fresh"`
}

// Empty reports whether the run reproduced the baseline exactly: nothing
// new, nothing dropped, nothing value-changed.
func (r *DeltaReport) Empty() bool {
	return len(r.New) == 0 && len(r.Dropped) == 0 && len(r.Changed) == 0
}

// Summary renders the one-line human digest the CLI prints under -stats.
func (r *DeltaReport) Summary() string {
	return fmt.Sprintf("delta: new=%d dropped=%d changed=%d unchanged=%d (baseline-hits=%d fresh=%d)",
		len(r.New), len(r.Dropped), len(r.Changed), r.Unchanged, r.BaselineHits, r.Fresh)
}

// Render writes the report for humans: the summary line, then one line per
// new/dropped/changed key in sorted order. Deterministic — equal reports
// render to equal bytes.
func (r *DeltaReport) Render(w io.Writer) {
	fmt.Fprintln(w, r.Summary())
	for _, rec := range r.New {
		fmt.Fprintf(w, "new      %q = %s\n", rec.Key, recValue(rec))
	}
	for _, rec := range r.Dropped {
		fmt.Fprintf(w, "dropped  %q = %s\n", rec.Key, recValue(rec))
	}
	for _, ch := range r.Changed {
		fmt.Fprintf(w, "changed  %q: %s -> %s\n", ch.Key, recValue(ch.Old), recValue(ch.New))
	}
}

// WriteJSON serializes the report (indented, deterministic).
func (r *DeltaReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// WriteDeltaReportFile writes the report to path (the -delta-out flag's
// implementation, shared by every CLI) through store.WriteFileAtomic, so a
// crash mid-write leaves the previous report or none, never a truncated
// one.
func WriteDeltaReportFile(r *DeltaReport, path string) error {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return fmt.Errorf("flit: writing delta report: %w", err)
	}
	if err := store.WriteFileAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("flit: writing delta report: %w", err)
	}
	return nil
}

// recValue renders a record's value with full bit patterns (plus readable
// decimals) so a changed line pinpoints the exact deviation.
func recValue(r RunRecord) string {
	if r.Err != "" || r.Segfault {
		return fmt.Sprintf("error(%q)", r.Err)
	}
	if !r.IsVec {
		return fmt.Sprintf("%#016x (%g)", r.Scalar, math.Float64frombits(r.Scalar))
	}
	parts := make([]string, 0, len(r.Vec))
	for i, bits := range r.Vec {
		if i == 4 && len(r.Vec) > 5 {
			parts = append(parts, fmt.Sprintf("... %d more", len(r.Vec)-i))
			break
		}
		parts = append(parts, fmt.Sprintf("%#016x", bits))
	}
	return "vec[" + strings.Join(parts, " ") + "]"
}

// equalRecord compares two records of the same key bit-exactly.
func equalRecord(a, b RunRecord) bool {
	if a.IsVec != b.IsVec || a.Scalar != b.Scalar ||
		a.Err != b.Err || a.Segfault != b.Segfault || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Vec {
		if a.Vec[i] != b.Vec[i] {
			return false
		}
	}
	return true
}

// diff compares cur's run records against the set's, bit-exactly: a key
// only cur records is new, a key only the set records is dropped, and a
// key both record is unchanged or changed. It is the one place a
// DeltaReport is built; the warm-start counters are Cache.Delta's to fill.
func (s *recordSet) diff(cur *recordSet) *DeltaReport {
	rep := &DeltaReport{
		Engine:          EngineVersion,
		BaselineCommand: s.cmd,
		Command:         cur.cmd,
		New:             []RunRecord{},
		Dropped:         []RunRecord{},
		Changed:         []DeltaChange{},
	}
	for key, r := range cur.runs {
		base, ok := s.runs[key]
		switch {
		case !ok:
			rep.New = append(rep.New, *r)
		case equalRecord(*base, *r):
			rep.Unchanged++
		default:
			rep.Changed = append(rep.Changed, DeltaChange{Key: key, Old: *base, New: *r})
		}
	}
	for key, base := range s.runs {
		if _, ok := cur.runs[key]; !ok {
			rep.Dropped = append(rep.Dropped, *base)
		}
	}
	sort.Slice(rep.New, func(i, j int) bool { return rep.New[i].Key < rep.New[j].Key })
	sort.Slice(rep.Dropped, func(i, j int) bool { return rep.Dropped[i].Key < rep.Dropped[j].Key })
	sort.Slice(rep.Changed, func(i, j int) bool { return rep.Changed[i].Key < rep.Changed[j].Key })
	return rep
}

// WarmStart seeds the cache from previously exported artifacts and folds
// them into the baseline Delta reports against. Unlike Merge it needs no
// complete shard set: each artifact is checked on its own (format and
// engine version — foreign results are still rejected), shard coordinates
// and recorded commands may differ, and gaps are fine. Whatever the
// artifacts do not cover is recomputed, and because a cache hit is
// bit-identical to a recomputation the output is unchanged. The baseline
// is one record union across calls, so an artifact disagreeing with an
// earlier one on a run key's bits is rejected: a self-contradictory
// baseline cannot anchor a delta.
//
// With verify nothing is seeded: every covered evaluation the run requests
// is recomputed and Delta compares it bit-exactly against the baseline,
// turning a warm-started run into a variability monitor for the toolchain
// itself. Call WarmStart before the run (after Merge when both apply);
// calling it with no artifacts still turns Delta on.
func (c *Cache) WarmStart(verify bool, arts ...*Artifact) error {
	if c == nil {
		return errNilCache
	}
	if c.baseline == nil {
		c.baseline = newRecordSet()
	}
	for i, a := range arts {
		err := a.Check()
		if err == nil {
			err = c.baseline.add(a)
		}
		if err != nil {
			return fmt.Errorf("warm-start artifact %d: %w", i, err)
		}
		if !verify {
			c.seed(a)
		}
	}
	return nil
}

// Delta diffs every completed run entry of the cache against the
// warm-start baseline and returns the report; it is nil if WarmStart was
// never called. command is recorded as the current run's identity (the
// baseline's recorded command rides along for context). Call it after the
// run completes — the report reflects whatever has executed so far.
//
// Provenance decides which entries the run produced: a seeded entry the
// run never requested, or one seeded from outside the baseline (a merge's
// shard set), is not the run's; a requested baseline seed is a baseline
// hit and an unseeded entry is fresh. The run's entries then diff against
// the baseline bit-exactly, so a baseline key the run did not produce is
// dropped, and a baseline hit served from an earlier seed (Merge seeds
// its shard set first, and seeding never overwrites) is compared like any
// other.
func (c *Cache) Delta(command []string) *DeltaReport {
	if c == nil || c.baseline == nil {
		return nil
	}
	cur := &recordSet{cmd: command, runs: map[string]*RunRecord{}}
	var hits, fresh int
	c.runs.EachInfo(func(key string, v runVal, _ error, info exec.EntryInfo) {
		if info.Seeded && (info.Uses == 0 || c.baseline.runs[key] == nil) {
			return
		}
		if info.Seeded {
			hits++
		} else {
			fresh++
		}
		rec := recordOf(key, v)
		cur.runs[key] = &rec
	})
	rep := c.baseline.diff(cur)
	rep.BaselineHits, rep.Fresh = hits, fresh
	return rep
}

// DiffArtifacts diffs two artifact sets offline, without re-running
// anything. Each set is validated and folded exactly as `flit merge`
// validates its input — every artifact from this engine version, one
// command per set, a complete shard partition (so "dropped" means dropped,
// not "lost to a missing shard"), no key recorded with two bit patterns.
// The two sets' commands may differ (an incremental campaign re-runs as
// its configuration drifts); both are recorded in the report.
func DiffArtifacts(baseline, current []*Artifact) (*DeltaReport, error) {
	base, err := foldShardSet(baseline)
	if err != nil {
		return nil, fmt.Errorf("flit: baseline artifact set: %w", err)
	}
	cur, err := foldShardSet(current)
	if err != nil {
		return nil, fmt.Errorf("flit: current artifact set: %w", err)
	}
	return base.diff(cur), nil
}
