package comp_test

import (
	"sync"
	"testing"

	"repro/internal/apps/laghos"
	"repro/internal/apps/lulesh"
	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/inject"
	"repro/internal/prog"
)

// studyCompilations lists every clean compilation the studies build: the
// MFEM matrix, the Laghos study's xlc++ ladder and its g++ -O2 baseline,
// and the LULESH injection baseline.
func studyCompilations() []comp.Compilation {
	cs := append(comp.Matrix(), comp.Baseline(), comp.PerfReference(),
		comp.Compilation{Compiler: comp.Clang, OptLevel: "-O2"})
	for _, lvl := range comp.OptLevels {
		for _, sw := range []string{"", "-qstrict=vectorprecision"} {
			cs = append(cs, comp.Compilation{Compiler: comp.XLC, OptLevel: lvl, Switches: sw})
		}
	}
	return cs
}

// checkMemo compares the memoized Semantics and SpeedFactor of c and its
// -fPIC variant with a fresh derivation, for every given symbol.
func checkMemo(t *testing.T, c comp.Compilation, syms []*prog.Symbol) {
	t.Helper()
	for _, cc := range []comp.Compilation{c, c.WithFPIC()} {
		for _, sym := range syms {
			if got, want := comp.Semantics(cc, sym), comp.FreshSemantics(cc, sym); got != want {
				t.Fatalf("%s, %s: memoized semantics %+v, fresh %+v", cc, sym.Name, got, want)
			}
			if got, want := comp.SpeedFactor(cc, sym), comp.FreshSpeedFactor(cc, sym); got != want {
				t.Fatalf("%s, %s: memoized speed factor %v, fresh %v", cc, sym.Name, got, want)
			}
		}
	}
}

// TestMemoChangesNoResult: for every compilation the studies use, with and
// without -fPIC, and every symbol of the three programs, the memoized
// semantics and speed factors equal a derivation that bypasses the memo.
// Table 5's injected plans are checked over the program they are built
// for, and share the memo entry of their clean compilation.
func TestMemoChangesNoResult(t *testing.T) {
	var all []*prog.Symbol
	for _, p := range []*prog.Program{mfem.Program(), laghos.Program(), lulesh.Program()} {
		all = append(all, p.Symbols()...)
	}
	for _, c := range studyCompilations() {
		checkMemo(t, c, all)
	}

	p := lulesh.Program()
	base := comp.Compilation{Compiler: comp.Clang, OptLevel: "-O2"}
	for _, site := range inject.EnumerateSites(p) {
		for _, op := range fp.AllInjectOps {
			inj := fp.Injection{OpIndex: site.OpIndex, Op: op, Eps: inject.EpsFor(site, op)}
			a := base.WithInjection(site.Symbol, inj)
			b := base.WithInjection(site.Symbol, inj)
			if a.Inject == b.Inject {
				t.Fatal("test premise broken: WithInjection shared a plan pointer")
			}
			if comp.MemoEntry(a) != comp.MemoEntry(b) || comp.MemoEntry(a) != comp.MemoEntry(base) {
				t.Fatalf("%s: injected plans do not share their clean compilation's memo entry", a.Key())
			}
			checkMemo(t, a, p.Symbols())
		}
	}
}

// TestMemoConcurrentFirstCall: goroutines making the first call for one
// compilation at once all read a single memo entry and the fresh results.
// Run under -race.
func TestMemoConcurrentFirstCall(t *testing.T) {
	// A switch no other test uses, so the memo has no entry yet.
	c := comp.Compilation{Compiler: comp.GCC, OptLevel: "-O3",
		Switches: "-ffast-math -mavx2 -mfma -memo-first-call-probe"}
	syms := mfem.Program().Symbols()
	entries := make([]any, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range entries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, sym := range syms {
				if got, want := comp.Semantics(c, sym), comp.FreshSemantics(c, sym); got != want {
					t.Errorf("%s: semantics %+v, fresh %+v", sym.Name, got, want)
				}
			}
			entries[g] = comp.MemoEntry(c)
		}()
	}
	close(start)
	wg.Wait()
	for g, e := range entries {
		if e != entries[0] {
			t.Fatalf("goroutine %d read a different memo entry than goroutine 0", g)
		}
	}
}
