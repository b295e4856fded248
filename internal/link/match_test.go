package link_test

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps/laghos"
	"repro/internal/apps/lulesh"
	"repro/internal/apps/mfem"
	"repro/internal/comp"
	"repro/internal/link"
	"repro/internal/prog"
)

// TestLinkMatchesReference: over seeded file, symbol and -fPIC-probe mixes
// of the three apps, and over plans mixing file and symbol overrides under
// several compilations, Link gives the map-based reference linker's crash
// flag, layout (so the interning order of its compilations) and binding
// of every symbol. The variable compilations are icpc and g++ ones, so the
// file-mix and symbol-mix hazards both fire.
func TestLinkMatchesReference(t *testing.T) {
	var variables []comp.Compilation
	for _, c := range comp.Matrix() {
		if c.Compiler == comp.ICPC || c.Compiler == comp.GCC {
			variables = append(variables, c)
		}
	}
	crashes := 0
	for i, p := range []*prog.Program{mfem.Program(), laghos.Program(), lulesh.Program()} {
		r := rand.New(rand.NewPCG(1, uint64(i)))
		files := p.FileNames()
		pick := func() comp.Compilation { return variables[r.IntN(len(variables))] }
		// subset draws names with repeats, in no particular order, as a
		// caller may pass them.
		subset := func(names []string) []string {
			out := make([]string, 1+r.IntN(len(names)))
			for k := range out {
				out[k] = names[r.IntN(len(names))]
			}
			return out
		}
		exported := func(file string) []string {
			var names []string
			for _, sym := range p.ExportedSymbols(file) {
				names = append(names, sym.Name)
			}
			return names
		}
		for n := range 200 {
			base := comp.Baseline()
			if n%5 == 4 {
				base = pick() // an icpc baseline trips the hazard the other way
			}
			file := files[r.IntN(len(files))]
			var plan link.Plan
			switch n % 4 {
			case 0:
				plan = link.FileMixPlan(p, base, pick(), subset(files))
			case 1:
				if syms := exported(file); len(syms) > 0 {
					plan = link.SymbolMixPlan(p, base, pick(), subset(syms))
				} else {
					plan = link.FullBuildPlan(p, pick())
				}
			case 2:
				plan = link.FPICProbePlan(p, base, pick(), file)
			default:
				plan = mixedPlan(p, base, subset(files), subset(exported(file)), pick)
			}
			got, err := link.Link(plan)
			if err != nil {
				t.Fatalf("%s plan %d: %v", p.Name, n, err)
			}
			want := link.ReferenceLink(plan)
			if got.Crashes() != want.Crashes() || got.Layout() != want.Layout() {
				t.Fatalf("%s plan %d (%s): crash %v layout %q, reference crash %v layout %q",
					p.Name, n, plan.Key(), got.Crashes(), got.Layout(), want.Crashes(), want.Layout())
			}
			for id := range p.NumSymbols() {
				sym := p.SymbolAt(id)
				if g, w := got.Binding(sym), want.Binding(sym); g != w {
					t.Fatalf("%s plan %d: %s binds %s, reference %s", p.Name, n, sym.Name, g, w)
				}
			}
			if got.Crashes() {
				crashes++
			}
		}
	}
	if crashes == 0 {
		t.Fatal("no plan crashed: the hazards were never exercised")
	}
}

// mixedPlan overrides files and symbols at once, each under one of three
// compilations drawn per plan, so a file's symbols may carry different
// compilations: the lists are sorted and deduplicated here, as a
// hand-built plan must be.
func mixedPlan(p *prog.Program, base comp.Compilation, files, syms []string, pick func() comp.Compilation) link.Plan {
	cs := [3]comp.Compilation{pick(), pick().WithFPIC(), pick().WithFPIC()}
	list := func(names []string, from int) []link.Override {
		var os []link.Override
		for k, n := range names {
			os = append(os, link.Override{Name: n, Comp: cs[from+k%2]})
		}
		slices.SortStableFunc(os, func(a, b link.Override) int { return strings.Compare(a.Name, b.Name) })
		return slices.CompactFunc(os, func(a, b link.Override) bool { return a.Name == b.Name })
	}
	return link.Plan{Prog: p, Baseline: base, Files: list(files, 0), Symbols: list(syms, 1)}
}
