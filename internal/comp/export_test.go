package comp

import (
	"repro/internal/fp"
	"repro/internal/prog"
)

// FreshSemantics is Semantics with the compilation-level part derived
// from scratch instead of read from the memo.
func FreshSemantics(c Compilation, sym *prog.Symbol) fp.Semantics {
	return symbolSemantics(newCompileLevel(c), sym)
}

// FreshSpeedFactor is SpeedFactor over FreshSemantics.
func FreshSpeedFactor(c Compilation, sym *prog.Symbol) float64 {
	return speedFactor(c, sym, FreshSemantics(c, sym))
}

// MemoEntry returns the memo entry Semantics reads for c, as an opaque
// pointer for identity comparisons.
func MemoEntry(c Compilation) any { return levelOf(c) }
