package flit

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Artifact garbage collection for long-lived campaigns.
//
// An incremental campaign re-exports artifacts run after run, so a shard
// directory accumulates generations without bound. GC groups the *.json
// files of a directory by campaign slot — engine version, recorded
// command, and shard coordinates — and keeps only the newest N files of
// each slot: an older artifact for the same slot is strictly superseded (a
// deterministic engine would have produced it again), while files from
// other slots are never candidates, so a complete shard set can never be
// torn apart by pruning one of its members. Files named by a warm-start
// manifest are never touched, and files that do not parse *and validate*
// as this build's artifacts (delta reports, foreign-engine artifacts,
// hand-edited files) are never deleted — GC only prunes what it can prove
// superseded.

// GCPlan is the outcome of planning (and optionally applying) a GC pass
// over one directory. All lists hold full paths, sorted.
type GCPlan struct {
	// Kept are the newest keep files of each campaign slot.
	Kept []string
	// Pruned are superseded files (deleted by Apply).
	Pruned []string
	// Protected are superseded files spared because the caller's manifest
	// references them.
	Protected []string
	// Skipped are files that did not parse and validate as this build's
	// artifacts; GC never deletes what it cannot attribute to a campaign.
	Skipped []string
}

// gcFile is one parsed artifact file with its ordering metadata.
type gcFile struct {
	path string
	mod  time.Time
}

// PlanGC scans dir for artifact files and plans which are superseded.
// keep is the number of generations retained per campaign slot (>= 1);
// protect holds paths (as cleaned by NormalizePath) that must survive.
// Generations are ordered by file modification time, then path — newest
// first.
func PlanGC(dir string, keep int, protect map[string]bool) (*GCPlan, error) {
	if keep < 1 {
		return nil, fmt.Errorf("flit: gc must keep at least one generation per campaign (keep=%d)", keep)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	plan := &GCPlan{}
	groups := make(map[string][]gcFile)
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		a, err := ReadArtifactFile(path)
		// Check, not just decode: other JSON (a DeltaReport, a foreign
		// engine's artifact, a hand-edited file) can decode leniently into
		// the Artifact shape, and attributing it to a campaign slot could
		// prune a file that was never a generation of anything. Only files
		// this build can vouch for are GC candidates.
		if err == nil {
			err = a.Check()
		}
		if err != nil {
			plan.Skipped = append(plan.Skipped, path)
			continue
		}
		info, err := ent.Info()
		if err != nil {
			plan.Skipped = append(plan.Skipped, path)
			continue
		}
		key := a.Engine + "\x00" + strings.Join(a.Command, "\x00") + "\x00" + a.Shard.String()
		groups[key] = append(groups[key], gcFile{path: path, mod: info.ModTime()})
	}
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool {
			if !g[i].mod.Equal(g[j].mod) {
				return g[i].mod.After(g[j].mod)
			}
			return g[i].path > g[j].path
		})
		for i, f := range g {
			switch {
			case i < keep:
				plan.Kept = append(plan.Kept, f.path)
			case protect[NormalizePath(f.path)]:
				plan.Protected = append(plan.Protected, f.path)
			default:
				plan.Pruned = append(plan.Pruned, f.path)
			}
		}
	}
	sort.Strings(plan.Kept)
	sort.Strings(plan.Pruned)
	sort.Strings(plan.Protected)
	sort.Strings(plan.Skipped)
	return plan, nil
}

// Apply removes every pruned file. Kept, protected, and skipped files are
// untouched by construction.
func (p *GCPlan) Apply() error {
	for _, path := range p.Pruned {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("flit: gc pruning %s: %w", path, err)
		}
	}
	return nil
}

// NormalizePath is the canonical form both PlanGC and its callers use to
// compare paths (absolute when resolvable, cleaned otherwise), so a
// manifest entry protects a file however either side spelled the path.
func NormalizePath(path string) string {
	if abs, err := filepath.Abs(path); err == nil {
		return abs
	}
	return filepath.Clean(path)
}
