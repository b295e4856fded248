package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/flit"
	"repro/internal/fp"
	"repro/internal/link"
)

// TestQuickstartSmoke runs the whole quickstart workflow — matrix analysis,
// recommendation, bisect — and checks the narrative output is intact, so
// the example cannot silently rot.
func TestQuickstartSmoke(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"fastest bitwise-reproducible:",
		"fastest overall:",
		"variability-inducing compilations:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The dot-product kernel is hot and contractible: some compilation
	// must perturb it, and bisect must blame the kernel file.
	if !strings.Contains(out, "bisecting") || !strings.Contains(out, "kernel.cpp") {
		t.Errorf("bisect did not run or did not blame kernel.cpp:\n%s", out)
	}
}

// TestQuickstartShardMergeEquivalence is the example-level acceptance
// proof: for shard counts N in {1, 2, 3, 4, 8}, running the quickstart as
// N shards through the real CLI path (artifact files on disk included)
// and merging them reproduces the plain run byte for byte.
func TestQuickstartShardMergeEquivalence(t *testing.T) {
	var want strings.Builder
	if err := run(&want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, n := range []int{1, 2, 3, 4, 8} {
		var paths []string
		for i := 0; i < n; i++ {
			// "0/1" included: the degenerate single-shard run exports the
			// full artifact, and merging it alone must still replay exactly.
			shard := exec.Shard{Index: i, Count: n}
			p := filepath.Join(dir, strings.ReplaceAll(shard.String(), "/", "-")+".json")
			if err := cli(opts{shard: shard.String(), shardOut: p}, io.Discard); err != nil {
				t.Fatalf("N=%d shard %d: %v", n, i, err)
			}
			paths = append(paths, p)
		}
		var got strings.Builder
		if err := cli(opts{merge: strings.Join(paths, ",")}, &got); err != nil {
			t.Fatalf("N=%d merge: %v", n, err)
		}
		if got.String() != want.String() {
			t.Errorf("N=%d: merged output differs from plain run:\n--- merged ---\n%s\n--- plain ---\n%s",
				n, got.String(), want.String())
		}
	}
}

// TestQuickstartIncrementalDelta is the example-level incremental-campaign
// proof: warm-starting from an identical-command baseline reports an empty
// delta, and mutating exactly one compiler flag (-unroll moves the plain
// g++ -O3 row) reports exactly one new and one dropped cell — nothing
// else, because every other evaluation is answered from the baseline.
func TestQuickstartIncrementalDelta(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := cli(opts{shard: "0/1", shardOut: base}, io.Discard); err != nil {
		t.Fatal(err)
	}

	var same strings.Builder
	if err := cli(opts{warmStart: base}, &same); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(same.String(), "delta: new=0 dropped=0 changed=0") {
		t.Errorf("identical warm-started run reported a non-empty delta:\n%s", same.String())
	}

	deltaPath := filepath.Join(dir, "delta.json")
	var mutated strings.Builder
	if err := cli(opts{warmStart: base, deltaOut: deltaPath, unroll: true}, &mutated); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mutated.String(), "delta: new=1 dropped=1 changed=0") {
		t.Errorf("flag mutation not scoped to one cell:\n%s", mutated.String())
	}
	raw, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep flit.DeltaReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("delta report is not valid JSON: %v", err)
	}
	if len(rep.New) != 1 || !strings.Contains(rep.New[0].Key, "-funroll-loops") {
		t.Errorf("new key does not name the mutated compilation: %+v", rep.New)
	}
	if len(rep.Dropped) != 1 || strings.Contains(rep.Dropped[0].Key, "-funroll-loops") {
		t.Errorf("dropped key should be the pre-mutation cell: %+v", rep.Dropped)
	}

	// The mutated run's artifact replays byte-identically through -merge:
	// the recorded command carries the mutation.
	next := filepath.Join(dir, "next.json")
	if err := cli(opts{shard: "0/1", shardOut: next, unroll: true}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var want, got strings.Builder
	if err := cli(opts{unroll: true}, &want); err != nil {
		t.Fatal(err)
	}
	if err := cli(opts{merge: next}, &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("merge replay lost the recorded -unroll mutation:\n--- merged ---\n%s\n--- direct ---\n%s",
			got.String(), want.String())
	}
}

// TestQuickstartMergeRejectsIncompleteSet: -merge validates its input as a
// complete shard set before replaying anything, so half of a 2-shard set
// fails naming the missing index and prints no output.
func TestQuickstartMergeRejectsIncompleteSet(t *testing.T) {
	s0 := filepath.Join(t.TempDir(), "s0.json")
	if err := cli(opts{shard: "0/2", shardOut: s0}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := cli(opts{merge: s0}, &out)
	if err == nil || !strings.Contains(err.Error(), "missing shard indices [1]") {
		t.Fatalf("merging shard 0 of 2: err = %v, want missing shard indices [1]", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed merge printed output:\n%s", out.String())
	}
}

// quickstartCostDigest is the SHA-256 of the quickstart matrix's runtimes
// as linked full builds charge them: the reference time (g++ -O2), then
// the 244 cell times in matrix order.
const quickstartCostDigest = "5360c9f7fa2794235ae365291a55b2447619c0756834901bd80d9252fd7278f7"

// TestMatrixCostsMatchFullBuilds: every runtime the quickstart's matrix
// reports — each cell's Time and the reference time — equals what linking
// the cell's full build and charging the test's root gives, bit for bit,
// and the digest pins those bits (ci.sh also runs this under GOAMD64=v3).
// A run of Time 1 makes Speedup read the reference time back exactly.
func TestMatrixCostsMatchFullBuilds(t *testing.T) {
	wf := workflow(exec.Shard{}, flit.NewCache(), 0, false)
	a, err := wf.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	s, r := wf.Suite, a.Results
	h := sha256.New()
	put := func(what string, got float64, c comp.Compilation) {
		ex, err := link.FullBuild(s.Prog, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := ex.Cost(s.Tests[0].Root()); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: runtime %v, linked full build charges %v", what, got, want)
		}
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(got)))
	}
	name := s.Tests[0].Name()
	put("reference", r.Speedup(flit.RunResult{Test: name, Time: 1}), s.Reference)
	runs := r.ForTest(name)
	if len(runs) != len(wf.Matrix) {
		t.Fatalf("%d cells for a %d-compilation matrix", len(runs), len(wf.Matrix))
	}
	for i, rr := range runs {
		if rr.Comp != wf.Matrix[i] {
			t.Fatalf("cell %d is %s, the matrix has %s", i, rr.Comp, wf.Matrix[i])
		}
		put(rr.Comp.String(), rr.Time, rr.Comp)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != quickstartCostDigest {
		t.Errorf("matrix cost digest %s, want %s", got, quickstartCostDigest)
	}
}

// TestFullBuildNeedsNoFileMap: the quickstart's full builds name no file,
// yet link to the executables that sending every file to the compilation
// does — equal layout, equal crash flag and bit-equal cost of the test's
// root — for every matrix compilation, the baseline, the reference and an
// injected compilation.
func TestFullBuildNeedsNoFileMap(t *testing.T) {
	p := program()
	root := (&myTest{p}).Root()
	injected := comp.Baseline().WithInjection(symDotKernel.Name,
		fp.Injection{OpIndex: 1, Op: fp.InjAdd, Eps: 0.25})
	for _, c := range append(comp.Matrix(), comp.Baseline(), comp.PerfReference(), injected) {
		a, err := link.Link(link.FileMixPlan(p, c, c, p.FileNames()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := link.FullBuild(p, c)
		if err != nil {
			t.Fatal(err)
		}
		if a.Layout() != b.Layout() || a.Crashes() != b.Crashes() {
			t.Errorf("%s: layouts or crash flags differ", c)
		}
		if x, y := a.Cost(root), b.Cost(root); math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("%s: cost %v with every file named, %v without", c, x, y)
		}
	}
}
