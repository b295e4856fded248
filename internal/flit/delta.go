package flit

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/exec"
)

// Delta detection for incremental campaigns.
//
// A long-lived campaign re-runs the same study as the toolchain, the
// matrix, or the workload drifts, warm-starting each run from the previous
// generation's artifacts. The DeltaReport is the answer to the question
// those re-runs exist to ask: *which* outputs changed against the warmed
// baseline? Two producers build one:
//
//   - Cache.Delta classifies a warm-started run (Cache.WarmStart) by
//     provenance — every build/run key answered from the baseline
//     (hit-from-baseline), computed fresh, or recomputed in verify mode
//     and found to diverge from the baseline's recorded bits. The CLI
//     writes it with -delta-out and summarizes it under -stats;
//   - DiffArtifacts diffs two artifact sets offline, with no re-running
//     (the `flit delta` subcommand).
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
// implementation, shared by every CLI).
func WriteDeltaReportFile(r *DeltaReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flit: writing delta report: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("flit: writing delta report: %w", err)
	}
	if err := f.Close(); err != nil {
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

// sort puts every list in key order so reports are deterministic.
func (r *DeltaReport) sort() {
	sort.Slice(r.New, func(i, j int) bool { return r.New[i].Key < r.New[j].Key })
	sort.Slice(r.Dropped, func(i, j int) bool { return r.Dropped[i].Key < r.Dropped[j].Key })
	sort.Slice(r.Changed, func(i, j int) bool { return r.Changed[i].Key < r.Changed[j].Key })
}

// WarmStart seeds the cache from previously exported artifacts and records
// them as the baseline Delta reports against. Unlike Merge it needs no
// complete shard set: each artifact is checked on its own (format and
// engine version — foreign results are still rejected), shard coordinates
// and recorded commands may differ, and gaps are fine. Whatever the
// artifacts do not cover is recomputed, and because a cache hit is
// bit-identical to a recomputation the output is unchanged. Two artifacts
// disagreeing on a key's bits are rejected: a self-contradictory baseline
// cannot anchor a delta.
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
		c.baseline = make(map[string]RunRecord)
	}
	for i, a := range arts {
		if err := c.addBaseline(a); err != nil {
			return fmt.Errorf("warm-start artifact %d: %w", i, err)
		}
		if !verify {
			c.seed(a)
		}
	}
	return nil
}

// addBaseline checks one warm-start artifact and folds its run records
// into the baseline.
func (c *Cache) addBaseline(a *Artifact) error {
	if err := a.Check(); err != nil {
		return err
	}
	for _, r := range a.Runs {
		if prev, ok := c.baseline[r.Key]; ok {
			if !equalRecord(prev, r) {
				return fmt.Errorf("flit: baseline artifacts disagree on key %q", r.Key)
			}
			continue
		}
		c.baseline[r.Key] = r
	}
	if c.baseCmd == nil {
		c.baseCmd = a.Command
	}
	return nil
}

// Delta classifies every completed run entry of the cache against the
// warm-start baseline and returns the report; it is nil if WarmStart was
// never called. command is recorded as the current run's identity (the
// baseline's recorded command rides along for context). Call it after the
// run completes — the report reflects whatever has executed so far.
//
// Provenance, per key: a seeded baseline entry the run requested is a
// baseline hit — counted unchanged when the served bits equal the
// baseline's record, changed when another seed superseded them (Merge
// seeds its shard set before the warm-start baseline and seeding never
// overwrites); a seeded baseline entry the run never requested is a
// dropped key; an unseeded entry covered by the baseline (verify mode
// recomputation) is fresh and compares bit-exactly — equal is unchanged,
// different is a divergence; an unseeded entry the baseline does not cover
// is a new key. Seeded entries outside the baseline (e.g. a merge's shard
// set) belong to no delta and are skipped.
func (c *Cache) Delta(command []string) *DeltaReport {
	if c == nil || c.baseline == nil {
		return nil
	}
	rep := &DeltaReport{
		Engine:          EngineVersion,
		BaselineCommand: c.baseCmd,
		Command:         command,
		New:             []RunRecord{},
		Dropped:         []RunRecord{},
		Changed:         []DeltaChange{},
	}
	seen := make(map[string]bool, len(c.baseline))
	c.runs.EachInfo(func(key string, v runVal, _ error, info exec.EntryInfo) {
		rec := recordOf(key, v)
		base, inBase := c.baseline[key]
		switch {
		case info.Seeded && !inBase:
			// Seeded from outside the baseline; not this delta's concern.
		case info.Seeded:
			seen[key] = true
			if info.Uses == 0 {
				rep.Dropped = append(rep.Dropped, base)
				break
			}
			rep.BaselineHits++
			// The cache entry usually *is* the baseline record, but when a
			// merge's shard set got there first the served value is the
			// current generation's, and it must still be compared
			// bit-exactly.
			if equalRecord(base, rec) {
				rep.Unchanged++
			} else {
				rep.Changed = append(rep.Changed, DeltaChange{Key: key, Old: base, New: rec})
			}
		case inBase:
			seen[key] = true
			rep.Fresh++
			if equalRecord(base, rec) {
				rep.Unchanged++
			} else {
				rep.Changed = append(rep.Changed, DeltaChange{Key: key, Old: base, New: rec})
			}
		default:
			rep.Fresh++
			rep.New = append(rep.New, rec)
		}
	})
	// Baseline keys that never reached the cache at all: possible only in
	// verify mode (nothing was seeded), and exactly the dropped set there.
	for key, base := range c.baseline {
		if !seen[key] {
			rep.Dropped = append(rep.Dropped, base)
		}
	}
	rep.sort()
	return rep
}

// DiffArtifacts diffs two artifact sets offline, without re-running
// anything. Each set is validated exactly like `flit merge` validates its
// input — every artifact from this engine version, one command per set, a
// complete shard partition (so "dropped" means dropped, not "lost to a
// missing shard") — and artifacts within a set disagreeing on a key's bits
// are rejected. The two sets' commands may differ (an incremental campaign
// re-runs as its configuration drifts); both are recorded in the report.
func DiffArtifacts(baseline, current []*Artifact) (*DeltaReport, error) {
	bmap, bcmd, err := unionRuns("baseline", baseline)
	if err != nil {
		return nil, err
	}
	cmap, ccmd, err := unionRuns("current", current)
	if err != nil {
		return nil, err
	}
	rep := &DeltaReport{
		Engine:          EngineVersion,
		BaselineCommand: bcmd,
		Command:         ccmd,
		New:             []RunRecord{},
		Dropped:         []RunRecord{},
		Changed:         []DeltaChange{},
	}
	for key, cur := range cmap {
		base, ok := bmap[key]
		switch {
		case !ok:
			rep.New = append(rep.New, cur)
		case equalRecord(base, cur):
			rep.Unchanged++
		default:
			rep.Changed = append(rep.Changed, DeltaChange{Key: key, Old: base, New: cur})
		}
	}
	for key, base := range bmap {
		if _, ok := cmap[key]; !ok {
			rep.Dropped = append(rep.Dropped, base)
		}
	}
	rep.sort()
	return rep, nil
}

// unionRuns validates one artifact set and flattens its run records into a
// map, rejecting cross-artifact disagreement on any key (shards
// legitimately overlap on shared baseline cells, with identical values).
func unionRuns(label string, arts []*Artifact) (map[string]RunRecord, []string, error) {
	if err := ValidateShardSet(arts); err != nil {
		return nil, nil, fmt.Errorf("flit: %s artifact set: %w", label, err)
	}
	m := make(map[string]RunRecord)
	for _, a := range arts {
		for _, r := range a.Runs {
			if prev, ok := m[r.Key]; ok {
				if !equalRecord(prev, r) {
					return nil, nil, fmt.Errorf("flit: %s artifact set disagrees on key %q", label, r.Key)
				}
				continue
			}
			m[r.Key] = r
		}
	}
	return m, arts[0].Command, nil
}
