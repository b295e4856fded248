package main

import (
	"hash/fnv"
	"math/rand/v2"
	"sort"

	"repro/internal/comp"
	"repro/internal/flit"
	"repro/internal/inject"
)

// Seeded input draws. The seed reaches only these functions: the engine
// under test receives the drawn pairs, sites and shard counts, never the
// seed. Each draw has its own stream (keyed by purpose), so adding a draw
// to one workload never shifts the inputs of another.

func stream(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

// Sizes of the sweep's samples, the same as `flit experiments sweep`: the
// first 30 variable pairs per compiler for the Table 2 bisect sample, and
// every 13th LULESH injection site.
const (
	sweepSearchesPerCompiler = 30
	sweepSiteStride          = 13
)

// stratified picks k of the indices [0, n), one uniformly from each of k
// equal consecutive slices, in ascending order. Against a simple random
// sample it keeps every part of the matrix (every test, every optimization
// level) in each draw in its share, so that from seed to seed the sample's
// cost — and with it every metric the sample feeds — varies less.
func stratified(r *rand.Rand, n, k int) []int {
	k = min(k, n)
	out := make([]int, k)
	for s := range out {
		lo, hi := s*n/k, (s+1)*n/k
		out[s] = lo + r.IntN(hi-lo)
	}
	return out
}

// drawSweepPairs picks sweepSearchesPerCompiler variable (test,
// compilation) pairs per compiler, kept in matrix order as Table 2 selects
// them.
func drawSweepPairs(seed int64, variable []flit.RunResult) []flit.RunResult {
	r := stream(seed, "sweep-pairs")
	var picked []int
	for _, c := range []string{comp.GCC, comp.Clang, comp.ICPC} {
		var idx []int
		for i, rr := range variable {
			if rr.Comp.Compiler == c {
				idx = append(idx, i)
			}
		}
		for _, s := range stratified(r, len(idx), sweepSearchesPerCompiler) {
			picked = append(picked, idx[s])
		}
	}
	sort.Ints(picked)
	out := make([]flit.RunResult, len(picked))
	for k, i := range picked {
		out[k] = variable[i]
	}
	return out
}

// drawSites picks as many injection sites as a stride-13 sample holds, one
// from each of that many equal slices of the enumeration order.
func drawSites(seed int64, all []inject.Site) []inject.Site {
	n := (len(all) + sweepSiteStride - 1) / sweepSiteStride
	idx := stratified(stream(seed, "sweep-sites"), len(all), n)
	out := make([]inject.Site, n)
	for k, i := range idx {
		out[k] = all[i]
	}
	return out
}

// drawSearchPairs picks n distinct variable pairs, one from each of n equal
// slices of the matrix, and shuffles them: the sequence of `flit bisect`
// invocations the bisect workload replays.
func drawSearchPairs(seed int64, variable []flit.RunResult, n int) []flit.RunResult {
	r := stream(seed, "bisect-pairs")
	idx := stratified(r, len(variable), n)
	r.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	out := make([]flit.RunResult, len(idx))
	for k, i := range idx {
		out[k] = variable[i]
	}
	return out
}

// campaignDraw is one coordinator campaign as submitted.
type campaignDraw struct {
	Command []string
	Shards  int
}

// drawCampaigns shuffles the submission order of the given commands and
// splits total shards among them, each count within [lo, hi]. The total is
// fixed so that the coordinator's per-request cost, which grows with the
// whole tenancy, does not vary with the seed; only how the shards fall
// across campaigns does.
func drawCampaigns(seed int64, commands [][]string, total, lo, hi int) []campaignDraw {
	r := stream(seed, "coord-campaigns")
	order := r.Perm(len(commands))
	counts := make([]int, len(commands))
	left := total
	for i := range counts {
		rest := len(counts) - i - 1
		// Keep the remainder satisfiable by the campaigns still to draw.
		a := max(lo, left-rest*hi)
		b := min(hi, left-rest*lo)
		counts[i] = a + r.IntN(b-a+1)
		left -= counts[i]
	}
	out := make([]campaignDraw, len(commands))
	for k, i := range order {
		out[k] = campaignDraw{Command: commands[i], Shards: counts[k]}
	}
	return out
}
