package link

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/prog"
)

// mapPlan is the map-based plan the sorted override lists replaced, kept as
// the reference Plan.Key and Link must match byte for byte: overrides keyed
// by name in FileComp and SymbolComp maps, built by the mapFullBuild,
// mapFileMix, mapSymbolMix and mapFPICProbe constructors exactly as the
// map-based constructors did.
type mapPlan struct {
	prog              *prog.Program
	baseline          comp.Compilation
	fileComp, symComp map[string]comp.Compilation
}

func mapFullBuild(p *prog.Program, c comp.Compilation) mapPlan {
	return mapPlan{prog: p, baseline: c}
}

func mapFileMix(p *prog.Program, baseline, variable comp.Compilation, files []string) mapPlan {
	fileComp := make(map[string]comp.Compilation, len(files))
	for _, f := range files {
		fileComp[f] = variable
	}
	return mapPlan{prog: p, baseline: baseline, fileComp: fileComp}
}

func mapSymbolMix(p *prog.Program, baseline, variable comp.Compilation, symbols []string) mapPlan {
	symComp := make(map[string]comp.Compilation, len(symbols))
	for _, s := range symbols {
		symComp[s] = variable.WithFPIC()
	}
	return mapPlan{prog: p, baseline: baseline, symComp: symComp}
}

func mapFPICProbe(p *prog.Program, baseline, variable comp.Compilation, file string) mapPlan {
	return mapFileMix(p, baseline, variable.WithFPIC(), []string{file})
}

// mapPlanOf is p with its lists turned back into maps.
func mapPlanOf(p Plan) mapPlan {
	m := mapPlan{prog: p.Prog, baseline: p.Baseline,
		fileComp: map[string]comp.Compilation{}, symComp: map[string]comp.Compilation{}}
	for _, o := range p.Files {
		m.fileComp[o.Name] = o.Comp
	}
	for _, o := range p.Symbols {
		m.symComp[o.Name] = o.Comp
	}
	return m
}

// planOf is m as a Plan: its maps as name-sorted lists.
func planOf(m mapPlan) Plan {
	list := func(cs map[string]comp.Compilation) []Override {
		var os []Override
		for _, n := range slices.Sorted(maps.Keys(cs)) {
			os = append(os, Override{n, cs[n]})
		}
		return os
	}
	return Plan{Prog: m.prog, Baseline: m.baseline, Files: list(m.fileComp), Symbols: list(m.symComp)}
}

// key is the map-based Plan.Key: every override sorted by name, one
// comp.Key per override.
func (p mapPlan) key() string {
	var b strings.Builder
	b.WriteString(comp.KeyEscape(p.prog.Name))
	b.WriteString("|base=")
	b.WriteString(p.baseline.Key())
	for _, f := range slices.Sorted(maps.Keys(p.fileComp)) {
		b.WriteString("|f:")
		b.WriteString(comp.KeyEscape(f))
		b.WriteString("=")
		b.WriteString(p.fileComp[f].Key())
	}
	for _, s := range slices.Sorted(maps.Keys(p.symComp)) {
		b.WriteString("|s:")
		b.WriteString(comp.KeyEscape(s))
		b.WriteString("=")
		b.WriteString(p.symComp[s].Key())
	}
	return b.String()
}

// link is the map-based linker, for plans Link accepts: the file table
// interned file by file, then every program symbol looked up in the
// symbol map by name, the baseline -fPIC copy interned per symbol of a
// two-copy file. Its symbol-mix hazard is checked per distinct (file,
// compilation) pair, the rule Link keeps: the map-based linker checked
// only whichever override of a file the map yielded first.
func (p mapPlan) link() *Executable {
	e := &Executable{prog: p.prog, baseline: p.baseline}
	for f, c := range p.fileComp {
		if c.Compiler != p.baseline.Compiler && comp.FileMixHazard(c, p.baseline, f) {
			e.crash = true
		}
	}
	type pair struct {
		file string
		c    comp.Compilation
	}
	seen := map[pair]bool{}
	for s, c := range p.symComp {
		k := pair{p.prog.Symbol(s).File, c}
		if !seen[k] {
			seen[k] = true
			e.crash = e.crash || comp.SymbolMixHazard(c, k.file)
		}
	}

	files := p.prog.Files()
	fileTab := make([]int32, len(files))
	for i, f := range files {
		c, ok := p.fileComp[f.Name]
		if !ok {
			c = p.baseline
		}
		fileTab[i] = e.intern(c)
	}
	twoCopies := make([]bool, len(files))
	for s := range p.symComp {
		twoCopies[p.prog.Symbol(s).FileID()] = true
	}
	e.symTab = make([]int32, p.prog.NumSymbols())
	for id := range e.symTab {
		sym := p.prog.SymbolAt(id)
		c, overridden := p.symComp[sym.Name]
		switch {
		case !sym.Exported:
			e.symTab[id] = fileTab[sym.FileID()]
		case overridden:
			e.symTab[id] = e.intern(c)
		case twoCopies[sym.FileID()]:
			e.symTab[id] = e.intern(p.baseline.WithFPIC())
		default:
			e.symTab[id] = fileTab[sym.FileID()]
		}
	}
	return e
}

// keyFuzzNames is the name list a fuzz input picks from a, b and c: up to
// six picks, two bits each, the fourth value picking a again, so lists
// come unsorted and with duplicates.
func keyFuzzNames(a, b, c string, picks uint16) []string {
	pool := [4]string{a, b, c, a}
	names := make([]string, int(picks>>12)%7)
	for i := range names {
		names[i] = pool[picks>>(2*i)&3]
	}
	return names
}

// FuzzPlanKeyMatchesReference: every plan the constructors build keys to
// the bytes the map-based reference gives, whatever the names (the key
// format's structural characters '|', '=', '%' and NUL included, given
// unsorted and twice), the compilation (injected, with hostile op bytes
// and epsilon bits) and the plan shape. Mode 4 lists files and symbols in
// one plan under several compilations, so Key takes one compilation key
// per run of equal compilations.
func FuzzPlanKeyMatchesReference(f *testing.F) {
	f.Add("p", "f.cpp", "g.cpp", "S", "g++", "-O2", "", uint8(0), false, uint64(0), uint16(0))
	f.Add("p|base=x", "b=1.cpp", "a%7C.cpp", "S\x00", "g++|", "-O2=3", "a|b",
		uint8(1), false, uint64(0), uint16(0x6_0e4))
	f.Add("p", "z.cpp", "a.cpp", "m.cpp", "icpc", "-O3", "-fp-model fast=2",
		uint8(2), true, math.Float64bits(math.NaN()), uint16(0x5_1b6))
	f.Add("p", "f.cpp", "g.cpp", "S", "clang++", "-O1", "-mavx2",
		uint8(3), true, math.Float64bits(math.Copysign(0, -1)), uint16(0))
	f.Add("q", "Dot", "Scale", "Main", "g++", "-O3", "-mfma",
		uint8(4), true, math.Float64bits(0.375), uint16(0x6_9c9))
	f.Fuzz(func(t *testing.T, progName, a, b, c, compiler, opt, sw string,
		mode uint8, inj bool, epsBits uint64, picks uint16) {
		p := prog.New(progName)
		v := comp.Compilation{Compiler: compiler, OptLevel: opt, Switches: sw}
		if inj {
			v = v.WithInjection(b, fp.Injection{
				OpIndex: int(mode),
				Op:      fp.InjectOp(mode*7 + 43),
				Eps:     math.Float64frombits(epsBits),
			})
		}
		base := comp.Baseline()
		names := keyFuzzNames(a, b, c, picks)
		var plan Plan
		var ref mapPlan
		switch mode % 5 {
		case 0:
			plan, ref = FullBuildPlan(p, v), mapFullBuild(p, v)
		case 1:
			plan, ref = FileMixPlan(p, base, v, names), mapFileMix(p, base, v, names)
		case 2:
			plan, ref = SymbolMixPlan(p, base, v, names), mapSymbolMix(p, base, v, names)
		case 3:
			plan, ref = FPICProbePlan(p, base, v, a), mapFPICProbe(p, base, v, a)
		default:
			ref = mapPlan{prog: p, baseline: v,
				fileComp: map[string]comp.Compilation{}, symComp: map[string]comp.Compilation{}}
			for i, n := range names {
				ref.fileComp[n] = [2]comp.Compilation{v, base}[picks>>(8+i%4)&1]
				ref.symComp[n+"~"] = [3]comp.Compilation{base, v.WithFPIC(), v}[i%3]
			}
			plan = planOf(ref)
		}
		if got, want := plan.Key(), ref.key(); got != want {
			t.Fatalf("key %q, reference %q", got, want)
		}
	})
}
