package coord

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/store"
)

// The journal is the coordinator's crash-safety story: one JSON file,
// rewritten through store.WriteFileAtomic after every durable state
// change, so the file on disk is always one complete, internally
// consistent snapshot — never a torn one. It records only what recovery
// needs: specs, completions, attempt counts, quarantines, failure
// reports and who holds which lease — never a wall-clock deadline.
// Submit, grant, release, fail, complete, the expiry sweep and gc are
// journaled *before* they are acknowledged, so an acknowledged
// completion stays completed and nothing is ever double-scheduled.
// Heartbeats only move a lease's deadline, so they stay in memory;
// recovery instead gives every journaled lease one fresh TTL, which is
// the grace a live worker needs to heartbeat the restarted coordinator.
//
// Exactly one format is read: version 3, the multi-tenant snapshot with
// failure containment (per-shard attempt counts, quarantine flags,
// retained failure reports, the per-campaign report counter). Any other
// version is refused and its campaigns must be resubmitted.

// journalShard is one shard's persisted state.
type journalShard struct {
	Done        bool            `json:"done,omitempty"`
	Artifact    string          `json:"artifact,omitempty"`
	LeaseID     string          `json:"lease_id,omitempty"`
	Worker      string          `json:"worker,omitempty"`
	Attempts    int             `json:"attempts,omitempty"`
	Quarantined bool            `json:"quarantined,omitempty"`
	Failures    []FailureReport `json:"failures,omitempty"`
}

// journalCampaign is one campaign's persisted state.
type journalCampaign struct {
	ID          string         `json:"id"`
	Spec        Spec           `json:"spec"`
	Seq         int64          `json:"seq"`
	Releases    int64          `json:"releases"`
	FailReports int64          `json:"fail_reports,omitempty"`
	Shards      []journalShard `json:"shards"`
}

// journalFile is the persisted coordinator snapshot.
type journalFile struct {
	Version   int               `json:"version"`
	Engine    string            `json:"engine"`
	Campaigns []journalCampaign `json:"campaigns"`
}

// journalLocked atomically persists the current state. Callers hold mu.
func (c *Coordinator) journalLocked() error {
	jf := journalFile{Version: JournalVersion, Engine: c.engine,
		Campaigns: make([]journalCampaign, 0, len(c.order))}
	for _, id := range c.order {
		cp := c.campaigns[id]
		jc := journalCampaign{ID: cp.id, Spec: cp.spec, Seq: cp.seq,
			Releases: cp.releases, FailReports: cp.failReports,
			Shards: make([]journalShard, len(cp.shards))}
		for i := range cp.shards {
			s := &cp.shards[i]
			jc.Shards[i] = journalShard{Done: s.done, Artifact: s.artifact,
				LeaseID: s.leaseID, Worker: s.worker,
				Attempts: s.attempts, Quarantined: s.quarantined,
				Failures: s.failures}
		}
		jf.Campaigns = append(jf.Campaigns, jc)
	}
	buf, err := json.Marshal(jf)
	if err != nil {
		return fmt.Errorf("coord: encoding journal: %w", err)
	}
	if err := store.WriteFileAtomic(filepath.Join(c.dir, journalName), buf); err != nil {
		return fmt.Errorf("coord: writing journal: %w", err)
	}
	return nil
}

// recover rebuilds the tenancy from a journal's bytes. Any version but
// JournalVersion refuses (v1 and v2 predate failure containment; a newer
// one may record state this build cannot schedule faithfully), as does a
// journal fenced to a different engine — its artifacts are not
// interchangeable with anything this build would run. Every recovered
// lease keeps its ID and expires one TTL from now.
func (c *Coordinator) recover(raw []byte) error {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return fmt.Errorf("coord: %s holds an unreadable journal (%v) — refusing to treat it as a coordinator directory",
			c.dir, err)
	}
	if probe.Version != JournalVersion {
		return fmt.Errorf("coord: %s holds journal format v%d, this build reads only v%d — resubmit its campaigns into a fresh -dir",
			c.dir, probe.Version, JournalVersion)
	}
	var jf journalFile
	if err := json.Unmarshal(raw, &jf); err != nil {
		return fmt.Errorf("coord: parsing journal: %w", err)
	}
	if jf.Engine != c.engine {
		return fmt.Errorf("coord: journaled tenancy is engine %q, this build is %q: results are not interchangeable",
			jf.Engine, c.engine)
	}
	expiry := c.opts.Now().Add(c.opts.LeaseTTL)
	for _, jc := range jf.Campaigns {
		if jc.Spec.Shards < 1 || len(jc.Shards) != jc.Spec.Shards {
			return fmt.Errorf("coord: journal campaign %s declares %d shards but records %d", jc.ID, jc.Spec.Shards, len(jc.Shards))
		}
		if jc.Spec.Engine != c.engine {
			return fmt.Errorf("coord: journaled campaign %s is engine %q, this build is %q: results are not interchangeable",
				jc.ID, jc.Spec.Engine, c.engine)
		}
		if want := CampaignID(jc.Spec); jc.ID != want {
			return fmt.Errorf("coord: journal campaign %s does not match its spec (its coordinates name %s) — refusing a corrupt journal",
				jc.ID, want)
		}
		if _, dup := c.campaigns[jc.ID]; dup {
			return fmt.Errorf("coord: journal lists campaign %s twice", jc.ID)
		}
		if jc.FailReports < 0 {
			return fmt.Errorf("coord: journal campaign %s records a negative failure count — refusing a corrupt journal", jc.ID)
		}
		cp := &campaign{id: jc.ID, spec: jc.Spec, seq: jc.Seq,
			releases: jc.Releases, failReports: jc.FailReports,
			shards: make([]shardState, len(jc.Shards))}
		for i, js := range jc.Shards {
			s := shardState{done: js.Done, artifact: js.Artifact,
				leaseID: js.LeaseID, worker: js.Worker,
				attempts: js.Attempts, quarantined: js.Quarantined,
				failures: js.Failures}
			if js.Attempts < 0 {
				return fmt.Errorf("coord: journal campaign %s records a negative attempt count on shard %d — refusing a corrupt journal", jc.ID, i)
			}
			if js.Done && js.Quarantined {
				// A shard cannot be both finished and poisoned; a journal that
				// claims so was not written by this code, and trusting either
				// half could resurrect a quarantined shard as leasable.
				return fmt.Errorf("coord: journal campaign %s marks shard %d both complete and quarantined — refusing a corrupt journal", jc.ID, i)
			}
			if s.leaseID != "" {
				s.expiry = expiry
			}
			if s.done {
				// A completed shard must still have its artifact; a journal that
				// says done while the file is gone would validate-fail at the end
				// with a confusing error, so catch it at recovery.
				if s.artifact == "" {
					return fmt.Errorf("coord: journal campaign %s marks shard %d complete without an artifact", jc.ID, i)
				}
				if _, err := os.Stat(filepath.Join(c.ArtifactDir(jc.ID), s.artifact)); err != nil {
					return fmt.Errorf("coord: journal campaign %s marks shard %d complete but its artifact is unreadable: %v", jc.ID, i, err)
				}
			}
			cp.shards[i] = s
		}
		if err := os.MkdirAll(c.ArtifactDir(jc.ID), 0o755); err != nil {
			return fmt.Errorf("coord: recovering campaign %s: %w", jc.ID, err)
		}
		c.campaigns[jc.ID] = cp
		c.order = append(c.order, jc.ID)
	}
	return nil
}
