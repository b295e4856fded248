package prog

import (
	"slices"
	"strings"
	"testing"
)

func sample() *Program {
	p := New("sample")
	p.AddFile("vector.cpp",
		&Symbol{Name: "Dot", Exported: true, Work: 2, FPOps: 4, SLOC: 10,
			Features: Features{Reduction: true, MulAdd: true}},
		&Symbol{Name: "Norm", Exported: true, Work: 1, FPOps: 2, SLOC: 6,
			Callees: []string{"Dot", "sqrtHelper"}},
		&Symbol{Name: "sqrtHelper", Exported: false, Work: 1, FPOps: 1, SLOC: 4,
			Features: Features{SqrtLibm: true}},
	)
	p.AddFile("solver.cpp",
		&Symbol{Name: "CG", Exported: true, Work: 10, FPOps: 20, SLOC: 60,
			Callees: []string{"Dot", "Norm", "applyA"}},
		&Symbol{Name: "applyA", Exported: false, Work: 5, FPOps: 8, SLOC: 25,
			Callees: []string{"innerKernel"}},
		&Symbol{Name: "innerKernel", Exported: false, Work: 3, FPOps: 6, SLOC: 12},
	)
	return p
}

func TestAddFileAndLookup(t *testing.T) {
	p := sample()
	if got := len(p.Files()); got != 2 {
		t.Fatalf("Files() = %d, want 2", got)
	}
	if p.Symbol("Dot") == nil || p.Symbol("Dot").File != "vector.cpp" {
		t.Fatal("Dot not registered correctly")
	}
	if p.Symbol("nope") != nil {
		t.Fatal("unknown symbol should be nil")
	}
	if p.File("solver.cpp") == nil || p.File("missing.cpp") != nil {
		t.Fatal("File lookup wrong")
	}
	names := p.FileNames()
	if names[0] != "vector.cpp" || names[1] != "solver.cpp" {
		t.Fatalf("FileNames order wrong: %v", names)
	}
}

func TestDuplicateFilePanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "duplicate file") {
			t.Fatalf("expected duplicate-file panic, got %v", r)
		}
	}()
	p := sample()
	p.AddFile("vector.cpp")
}

func TestDuplicateSymbolPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "duplicate symbol") {
			t.Fatalf("expected duplicate-symbol panic, got %v", r)
		}
	}()
	p := sample()
	p.AddFile("other.cpp", &Symbol{Name: "Dot"})
}

// TestSymbolIDsDense: AddFile numbers symbols 0..NumSymbols()-1 in
// registration order, FileID is the file's index in Files(), and SymbolAt
// inverts ID.
func TestSymbolIDsDense(t *testing.T) {
	p := sample()
	if got := p.NumSymbols(); got != 6 {
		t.Fatalf("NumSymbols() = %d, want 6", got)
	}
	id := 0
	for fi, f := range p.Files() {
		for _, s := range f.Symbols {
			if s.ID() != id {
				t.Errorf("%s: ID %d, want %d (AddFile order)", s.Name, s.ID(), id)
			}
			if s.FileID() != fi {
				t.Errorf("%s: FileID %d, want %d (index of %s in Files())", s.Name, s.FileID(), fi, f.Name)
			}
			if p.SymbolAt(s.ID()) != s {
				t.Errorf("SymbolAt(%d) is not %s", s.ID(), s.Name)
			}
			id++
		}
	}
}

func TestReregisteredSymbolPanics(t *testing.T) {
	p := sample()
	q := New("other")
	for _, add := range []func(){
		func() { q.AddFile("copy.cpp", p.Symbol("Dot")) },
		func() { p.AddFile("again.cpp", &Symbol{Name: "X"}, p.SymbolAt(0)) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "already registered") {
					t.Errorf("expected already-registered panic, got %v", r)
				}
			}()
			add()
		}()
	}
	if p.Symbol("Dot").ID() != 0 || p.Symbol("Dot").FileID() != 0 {
		t.Fatal("a refused registration renumbered Dot")
	}
}

func TestMustSymbolPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sample().MustSymbol("missing")
}

func TestDefaultWork(t *testing.T) {
	p := New("w")
	p.AddFile("a.cpp", &Symbol{Name: "f"})
	if p.Symbol("f").Work != 1 {
		t.Fatalf("default work = %g, want 1", p.Symbol("f").Work)
	}
}

func TestSymbolsSorted(t *testing.T) {
	p := sample()
	syms := p.Symbols()
	for i := 1; i < len(syms); i++ {
		if syms[i-1].Name >= syms[i].Name {
			t.Fatalf("Symbols not sorted: %s >= %s", syms[i-1].Name, syms[i].Name)
		}
	}
	if len(syms) != 6 {
		t.Fatalf("len(Symbols) = %d, want 6", len(syms))
	}
}

func TestExportedSymbols(t *testing.T) {
	p := sample()
	exp := p.ExportedSymbols("solver.cpp")
	if len(exp) != 1 || exp[0].Name != "CG" {
		t.Fatalf("ExportedSymbols(solver.cpp) = %v", exp)
	}
	if got := p.ExportedSymbols("missing.cpp"); got != nil {
		t.Fatalf("missing file should return nil, got %v", got)
	}
}

func TestReachableClosure(t *testing.T) {
	p := sample()
	r := p.Reachable("CG")
	want := []string{"CG", "Dot", "Norm", "applyA", "innerKernel", "sqrtHelper"}
	var got []string
	for _, s := range r {
		got = append(got, s.Name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Reachable(CG) = %v, want %v (each once, sorted by name)", got, want)
	}
	// Unknown callees are ignored.
	p2 := New("x")
	p2.AddFile("a.cpp", &Symbol{Name: "f", Callees: []string{"std::sort", "g"}},
		&Symbol{Name: "g"})
	r2 := p2.Reachable("f")
	if len(r2) != 2 {
		t.Fatalf("unknown callee not ignored: %v", r2)
	}
}

func TestReachableUnknownRoot(t *testing.T) {
	p := sample()
	if got := p.Reachable("missing"); len(got) != 0 {
		t.Fatalf("Reachable(missing) = %v, want empty", got)
	}
}

func TestExportedAncestor(t *testing.T) {
	p := sample()
	// Exported symbol is its own ancestor.
	if got := p.ExportedAncestor("CG"); got != "CG" {
		t.Fatalf("ExportedAncestor(CG) = %q", got)
	}
	// innerKernel <- applyA (internal) <- CG (exported).
	if got := p.ExportedAncestor("innerKernel"); got != "CG" {
		t.Fatalf("ExportedAncestor(innerKernel) = %q, want CG", got)
	}
	// sqrtHelper is called by Norm (exported) directly.
	if got := p.ExportedAncestor("sqrtHelper"); got != "Norm" {
		t.Fatalf("ExportedAncestor(sqrtHelper) = %q, want Norm", got)
	}
	if got := p.ExportedAncestor("missing"); got != "" {
		t.Fatalf("ExportedAncestor(missing) = %q, want empty", got)
	}
	// Orphan internal symbol with no callers.
	p.AddFile("orphan.cpp", &Symbol{Name: "lonely"})
	if got := p.ExportedAncestor("lonely"); got != "" {
		t.Fatalf("ExportedAncestor(lonely) = %q, want empty", got)
	}
}

func TestStats(t *testing.T) {
	p := sample()
	st := p.Stats()
	if st.SourceFiles != 2 || st.TotalFunctions != 6 {
		t.Fatalf("stats files/functions: %+v", st)
	}
	if st.AvgFuncsPerFile != 3 {
		t.Fatalf("AvgFuncsPerFile = %g, want 3", st.AvgFuncsPerFile)
	}
	if st.SLOC != 10+6+4+60+25+12 {
		t.Fatalf("SLOC = %d", st.SLOC)
	}
	if st.ExportedFuncs != 3 {
		t.Fatalf("ExportedFuncs = %d, want 3", st.ExportedFuncs)
	}
	if st.TotalFPOps != 4+2+1+20+8+6 {
		t.Fatalf("TotalFPOps = %d", st.TotalFPOps)
	}
	empty := New("e")
	if s := empty.Stats(); s.AvgFuncsPerFile != 0 {
		t.Fatalf("empty program stats: %+v", s)
	}
}

func TestValidate(t *testing.T) {
	p := sample()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	p.Symbol("Dot").FPOps = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative FPOps accepted")
	}
	p.Symbol("Dot").FPOps = 4
	p.Symbol("CG").File = "wrong.cpp"
	if err := p.Validate(); err == nil {
		t.Fatal("mismatched file accepted")
	}
}

func TestFeaturesAny(t *testing.T) {
	if (Features{}).Any() {
		t.Fatal("empty Features reported Any")
	}
	for _, f := range []Features{
		{MulAdd: true}, {Reduction: true}, {Division: true},
		{SqrtLibm: true}, {ShortExpr: true}, {Branch: true},
	} {
		if !f.Any() {
			t.Fatalf("Features %+v not Any", f)
		}
	}
}
