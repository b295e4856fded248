package experiments

import "repro/internal/flit"

// Sharded execution of the experiments suite.
//
// A shard run partitions the deterministic job index space of every driver
// — matrix baselines and cells, Table 2 searches, Table 4 row
// configurations, injection site × OP' pairs — executes only the owned
// jobs, and exports everything its build/run cache computed as a
// self-describing JSON artifact (flit.Artifact, keyed by
// link.Plan.Key + flit.TestKey). Merging seeds a fresh engine's
// cache with the union of the shards' artifacts and replays the recorded
// command: every evaluation is then answered from the cache, so the merge
// is cheap, and because a cache hit is bit-identical to a recomputation,
// the merged output is byte-identical to an unsharded run by construction.
// Small sequential phases (the motivation example, the Findings narrative,
// the adaptive File Bisect prefix of each search) run redundantly on every
// shard — the shard boundary is the expensive fan-outs, exactly as the
// paper's cluster sweeps partitioned compilations, not bookkeeping.

// ExportArtifact snapshots everything this engine's cache has computed as
// one shard artifact. command is the canonical CLI command the artifact
// replays under `flit merge` (nil for library use).
func (e *Engine) ExportArtifact(command []string) *flit.Artifact {
	return e.cache.Export(e.shard, command)
}

// ImportArtifacts seeds this engine's cache with a complete shard set
// (flit.Cache.Merge). Call it on a fresh engine before running any
// experiment; replaying the artifacts' recorded command then reproduces
// the unsharded output byte for byte.
func (e *Engine) ImportArtifacts(arts ...*flit.Artifact) error { return e.cache.Merge(arts...) }

// WarmStart seeds this engine's cache from any prior artifacts, no
// complete set required, and records them as the delta baseline
// (flit.Cache.WarmStart in trust mode): covered evaluations become cache
// hits, everything else is recomputed, and the output is unchanged. This
// is the incremental half of the shard protocol: any shard artifact
// doubles as a warm-start cache.
func (e *Engine) WarmStart(arts ...*flit.Artifact) error { return e.cache.WarmStart(false, arts...) }
