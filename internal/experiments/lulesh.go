package experiments

import (
	"fmt"
	"strings"

	"repro/internal/apps/lulesh"
	"repro/internal/comp"
	"repro/internal/inject"
)

// LULESHStudy returns the injection study driver (§3.5): the LULESH proxy
// compiled with clang (the paper's pass is an LLVM pass) at -O2. The study
// fans its independent detect-and-bisect injections out through the
// engine's pool, and its clean-baseline detection run — repeated by every
// injection — is memoized by the engine's cache.
func (e *Engine) LULESHStudy() *inject.Study {
	return &inject.Study{
		Prog:     lulesh.Program(),
		Test:     lulesh.NewCase(),
		Baseline: comp.Compilation{Compiler: comp.Clang, OptLevel: "-O2"},
		Pool:     e.pool,
		Cache:    e.cache,
		Shard:    e.shard,
	}
}

// Table5 runs the injection campaign and aggregates the outcome counts.
// stride > 1 samples every stride-th site (for quick runs); 1 runs the full
// 1,094 sites × 4 OP' = 4,376 injections of the paper.
func (e *Engine) Table5(stride int) (inject.Summary, error) {
	if stride < 1 {
		stride = 1
	}
	s := e.LULESHStudy()
	all := inject.EnumerateSites(s.Prog)
	var sites []inject.Site
	for i := 0; i < len(all); i += stride {
		sites = append(sites, all[i])
	}
	return s.Run(sites), nil
}

// RenderTable5 prints Table 5 in the paper's layout.
func RenderTable5(sum inject.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %s\n", "Category", "Count")
	rows := []struct {
		name string
		o    inject.Outcome
	}{
		{"exact finds", inject.Exact},
		{"indirect finds", inject.Indirect},
		{"wrong finds", inject.Wrong},
		{"missed finds", inject.Missed},
		{"not measurable", inject.NotMeasurable},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %6d\n", r.name, sum.Counts[r.o])
	}
	fmt.Fprintf(&b, "%-18s %6d\n", "total", sum.Total)
	fmt.Fprintf(&b, "precision %.3f  recall %.3f  avg executions %.1f\n",
		sum.Precision(), sum.Recall(), sum.AvgExecs())
	return b.String()
}
