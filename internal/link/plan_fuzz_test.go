package link

import (
	"math"
	"slices"
	"testing"

	"repro/internal/comp"
	"repro/internal/fp"
	"repro/internal/prog"
)

// fuzzPlanFrom assembles one build plan from free-form fuzz inputs: a
// one-file program, a compilation (optionally carrying an injection whose
// op byte and epsilon bits are fully attacker-chosen), one of the four
// plan shapes the drivers use.
func fuzzPlanFrom(progName, file, sym, compiler, opt, sw string,
	mode uint8, inj bool, epsBits uint64) Plan {
	p := prog.New(progName)
	p.AddFile(file, &prog.Symbol{Name: sym, Exported: true, Work: 1, FPOps: 2})
	c := comp.Compilation{Compiler: compiler, OptLevel: opt, Switches: sw}
	if inj {
		c = c.WithInjection(sym, fp.Injection{
			OpIndex: int(mode),
			Op:      fp.InjectOp(mode*7 + 43),
			Eps:     math.Float64frombits(epsBits),
		})
	}
	switch mode % 4 {
	case 0:
		return FullBuildPlan(p, c)
	case 1:
		return FileMixPlan(p, comp.Baseline(), c, []string{file})
	case 2:
		return SymbolMixPlan(p, comp.Baseline(), c, []string{sym})
	default:
		return FPICProbePlan(p, comp.Baseline(), c, file)
	}
}

// sameComp compares compilations with the epsilon of an injection compared
// as IEEE-754 bits: NaN payloads and signed zeros are distinct plan
// identities, exactly as the key renders them.
func sameComp(a, b comp.Compilation) bool {
	if a.Compiler != b.Compiler || a.OptLevel != b.OptLevel ||
		a.Switches != b.Switches || a.FPIC != b.FPIC {
		return false
	}
	if (a.Inject == nil) != (b.Inject == nil) {
		return false
	}
	if a.Inject == nil {
		return true
	}
	return a.Inject.Symbol == b.Inject.Symbol &&
		a.Inject.Inj.OpIndex == b.Inject.Inj.OpIndex &&
		a.Inject.Inj.Op == b.Inject.Inj.Op &&
		math.Float64bits(a.Inject.Inj.Eps) == math.Float64bits(b.Inject.Inj.Eps)
}

// samePlan is the semantic identity Plan.Key must be injective over:
// program name, baseline and both override lists. Two different tuples may
// legitimately assemble the same plan; those must share a key, everything
// else must not. A file override equal to the baseline is still an
// override: a full build names no file, so it and a file mix of the
// program's only file under the same compilation are distinct plans.
func samePlan(a, b Plan) bool {
	same := func(x, y Override) bool { return x.Name == y.Name && sameComp(x.Comp, y.Comp) }
	return a.Prog.Name == b.Prog.Name && sameComp(a.Baseline, b.Baseline) &&
		slices.EqualFunc(a.Files, b.Files, same) && slices.EqualFunc(a.Symbols, b.Symbols, same)
}

// FuzzPlanKeyInjective is the key-first safety net: two semantically
// distinct plans must never serialize to the same key, and equal plans
// must, even with names and injection op bytes abusing the key format's
// structural characters ('|', '=', '%', NUL) — comp.KeyEscape and the
// bit-pattern epsilon rendering are what hold this. A collision would let
// a key-first lookup hit a different plan's entry.
func FuzzPlanKeyInjective(f *testing.F) {
	f.Add("p", "f.cpp", "S", "g++", "-O2", "", uint8(0), false, uint64(0),
		"g++", "-O2", "", uint8(0), false, uint64(0))
	// Full build vs file mix of the only file under the same compilation:
	// the full build names no file, so the keys must differ.
	f.Add("p", "f.cpp", "S", "g++", "-O0", "", uint8(0), false, uint64(0),
		"g++", "-O0", "", uint8(1), false, uint64(0))
	// Structural-character abuse in every free-form field.
	f.Add("p|base=x", "f=1.cpp", "S%7C", "g++|", "-O2=3", "a|b",
		uint8(2), false, uint64(0),
		"g++", "-O2", "", uint8(2), false, uint64(0))
	// Injections: epsilons differing only below three significant digits
	// (the old rounded rendering collided these), hostile op bytes, NaN
	// payloads, signed zero.
	f.Add("p", "f.cpp", "S", "clang++", "-O3", "-mavx2", uint8(0), true,
		math.Float64bits(0.1234567),
		"clang++", "-O3", "-mavx2", uint8(0), true, math.Float64bits(0.1234568))
	f.Add("p", "f.cpp", "S", "icpc", "-O1", "", uint8(3), true,
		math.Float64bits(math.NaN()),
		"icpc", "-O1", "", uint8(3), true, math.Float64bits(math.NaN())|1)
	f.Add("p", "f.cpp", "S", "g++", "-O2", "", uint8(2), true,
		math.Float64bits(0.0),
		"g++", "-O2", "", uint8(2), true, math.Float64bits(math.Copysign(0, -1)))
	// Full build of the baseline vs a symbol mix under the baseline: an
	// override equal to the baseline still names its symbol.
	f.Add("p", "f.cpp", "S", "g++", "-O0", "", uint8(0), false, uint64(0),
		"g++", "-O0", "", uint8(2), false, uint64(0))
	f.Fuzz(func(t *testing.T,
		progName, file, sym string,
		comp1, opt1, sw1 string, mode1 uint8, inj1 bool, eps1 uint64,
		comp2, opt2, sw2 string, mode2 uint8, inj2 bool, eps2 uint64) {
		if sym == "" {
			t.Skip("prog.AddFile rejects an empty symbol name: no such plan exists")
		}
		p1 := fuzzPlanFrom(progName, file, sym, comp1, opt1, sw1, mode1, inj1, eps1)
		p2 := fuzzPlanFrom(progName, file, sym, comp2, opt2, sw2, mode2, inj2, eps2)
		k1, k2 := p1.Key(), p2.Key()
		if samePlan(p1, p2) != (k1 == k2) {
			t.Fatalf("samePlan=%v but key equality=%v:\n%q\n%q",
				samePlan(p1, p2), k1 == k2, k1, k2)
		}
	})
}
