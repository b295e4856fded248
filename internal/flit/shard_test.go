package flit

import (
	"bytes"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
)

// TestShardMergeMatrixEquivalence is the sharding property test: for every
// shard count N in {1, 2, 3, 4, 8}, running the full compilation matrix as
// N independent shards (each with its own pool and cache), exporting each
// shard's artifact through the JSON serialization, and replaying the
// unsharded run against the merged caches produces results byte-identical
// to the plain -j1 run — with every run evaluation answered from the
// artifacts (zero run-cache misses).
func TestShardMergeMatrixEquivalence(t *testing.T) {
	matrix := comp.Matrix()

	ref := newSuite()
	ref.Pool, ref.Cache = exec.New(1), NewCache()
	refRes, err := ref.RunMatrix(matrix)
	if err != nil {
		t.Fatal(err)
	}
	want := matrixFingerprint(refRes)

	for _, n := range []int{1, 2, 3, 4, 8} {
		arts := make([]*Artifact, n)
		for i := 0; i < n; i++ {
			shard := exec.Shard{Index: i, Count: n}
			s := newSuite()
			s.Pool, s.Cache, s.Shard = exec.New(4), NewCache(), shard
			if _, err := s.RunMatrix(matrix); err != nil {
				t.Fatalf("N=%d shard %d: %v", n, i, err)
			}
			// Round-trip every artifact through its JSON bytes: the merge
			// below must work from exactly what a remote shard would ship.
			var buf bytes.Buffer
			if err := s.Cache.Export(shard, []string{"matrix"}).WriteJSON(&buf); err != nil {
				t.Fatalf("N=%d shard %d: export: %v", n, i, err)
			}
			art, err := ReadArtifact(&buf)
			if err != nil {
				t.Fatalf("N=%d shard %d: re-read: %v", n, i, err)
			}
			arts[i] = art
		}
		if err := ValidateShardSet(arts); err != nil {
			t.Fatalf("N=%d: shard set invalid: %v", n, err)
		}
		merged := newSuite()
		merged.Pool, merged.Cache = exec.New(1), NewCache()
		if err := merged.Cache.Merge(arts...); err != nil {
			t.Fatalf("N=%d: merge: %v", n, err)
		}
		res, err := merged.RunMatrix(matrix)
		if err != nil {
			t.Fatalf("N=%d: merged replay: %v", n, err)
		}
		if got := matrixFingerprint(res); got != want {
			t.Errorf("N=%d: merged fingerprint differs from unsharded -j1 run", n)
		}
		if misses := merged.Cache.Metrics().Runs.Misses; misses != 0 {
			t.Errorf("N=%d: merged replay recomputed %d runs; shards did not cover the matrix", n, misses)
		}
	}
}

// TestShardedRunsPartitionCells: each shard computes only its slice — the
// union covers the matrix with each compilation's cells computed by
// exactly one shard (the baselines are shared prefix state, partitioned by
// test index).
func TestShardedRunsPartitionCells(t *testing.T) {
	matrix := comp.Matrix()
	const n = 3
	total := 0
	for i := 0; i < n; i++ {
		s := newSuite()
		s.Cache = NewCache()
		s.Shard = exec.Shard{Index: i, Count: n}
		res, err := s.RunMatrix(matrix)
		if err != nil {
			t.Fatal(err)
		}
		rows := len(res.ForTest("DotTest"))
		if want := len(exec.Shard{Index: i, Count: n}.Indices(len(matrix))); rows != want {
			t.Errorf("shard %d computed %d cells, owns %d", i, rows, want)
		}
		total += rows
	}
	if total != len(matrix) {
		t.Errorf("shards computed %d cells in total, matrix has %d", total, len(matrix))
	}
}

// TestValidateShardSetRejects covers the merge validator's failure modes:
// incomplete sets, duplicates, mixed commands, wrong counts, and foreign
// engine or format versions.
func TestValidateShardSetRejects(t *testing.T) {
	mk := func(i, n int, command ...string) *Artifact {
		c := NewCache()
		return c.Export(exec.Shard{Index: i, Count: n}, command)
	}
	if err := ValidateShardSet(nil); err == nil {
		t.Error("empty set accepted")
	}
	if err := ValidateShardSet([]*Artifact{mk(0, 2, "run")}); err == nil {
		t.Error("incomplete set (1 of 2) accepted")
	}
	if err := ValidateShardSet([]*Artifact{mk(0, 2, "run"), mk(0, 2, "run")}); err == nil {
		t.Error("duplicate shard accepted")
	}
	if err := ValidateShardSet([]*Artifact{mk(0, 2, "run"), mk(1, 2, "bisect")}); err == nil {
		t.Error("mixed commands accepted")
	}
	if err := ValidateShardSet([]*Artifact{mk(0, 3, "run"), mk(1, 3, "run")}); err == nil {
		t.Error("two shards of a 3-sharding accepted")
	}
	bad := mk(0, 1, "run")
	bad.Engine = "flit-engine/0-other"
	if err := ValidateShardSet([]*Artifact{bad}); err == nil {
		t.Error("mismatched engine version accepted")
	}
	badV := mk(0, 1, "run")
	badV.Version = ArtifactVersion + 1
	if err := ValidateShardSet([]*Artifact{badV}); err == nil {
		t.Error("mismatched format version accepted")
	}
	ok := []*Artifact{mk(1, 2, "run"), mk(0, 2, "run")} // order-independent
	if err := ValidateShardSet(ok); err != nil {
		t.Errorf("complete set rejected: %v", err)
	}
	if err := ValidateShardSet([]*Artifact{mk(0, 1, "run")}); err != nil {
		t.Errorf("single unsharded artifact rejected: %v", err)
	}
}
