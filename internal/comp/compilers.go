package comp

// CompilerInfo carries the descriptive fields of Table 1 plus the switch
// combinations paired with each base optimization level, following the flag
// lists of the original FLiT workload characterization (Sawaya et al.,
// IISWC 2017) that the paper reuses.
type CompilerInfo struct {
	Name     string
	Version  string
	Released string
	Switches []string
}

// gccSwitches: 17 combinations; 4 opt levels => 68 gcc compilations.
var gccSwitches = []string{
	"",
	"-mavx",
	"-mavx2 -mfma",
	"-funsafe-math-optimizations",
	"-funsafe-math-optimizations -mavx2 -mfma",
	"-ffast-math",
	"-fassociative-math -fno-signed-zeros -fno-trapping-math",
	"-freciprocal-math",
	"-ffinite-math-only",
	"-fno-trapping-math",
	"-frounding-math",
	"-fsignaling-nans",
	"-fno-builtin",
	"-fstrict-aliasing",
	"-ffloat-store",
	"-fexcess-precision=standard",
	"-fmerge-all-constants",
}

// clangSwitches: 18 combinations; 4 opt levels => 72 clang compilations.
var clangSwitches = []string{
	"",
	"-mavx",
	"-mavx2 -mfma",
	"-funsafe-math-optimizations",
	"-funsafe-math-optimizations -mavx2 -mfma",
	"-ffast-math",
	"-fassociative-math",
	"-freciprocal-math",
	"-ffinite-math-only",
	"-fno-trapping-math",
	"-ffp-contract=on",
	"-ffp-contract=off",
	"-fdenormal-fp-math=positive-zero",
	"-fmath-errno",
	"-fno-math-errno",
	"-funroll-loops",
	"-fvectorize",
	"-fno-vectorize",
}

// icpcSwitches: 26 combinations; 4 opt levels => 104 icpc compilations.
var icpcSwitches = []string{
	"",
	"-fp-model fast=1",
	"-fp-model fast=2",
	"-fp-model precise",
	"-fp-model strict",
	"-fp-model source",
	"-fp-model double",
	"-fp-model extended",
	"-no-fma",
	"-fma",
	"-ftz",
	"-no-ftz",
	"-prec-div",
	"-no-prec-div",
	"-prec-sqrt",
	"-no-prec-sqrt",
	"-fimf-precision=high",
	"-fimf-precision=low",
	"-fast-transcendentals",
	"-no-fast-transcendentals",
	"-mavx2",
	"-xCORE-AVX2",
	"-xCORE-AVX512",
	"-fp-speculation=fast",
	"-fp-speculation=safe",
	"-mp1",
}

// Compilers returns the compiler descriptions of the MFEM study (Table 1).
func Compilers() []CompilerInfo {
	return []CompilerInfo{
		{Name: GCC, Version: "gcc-8.2.0", Released: "26 July 2018", Switches: gccSwitches},
		{Name: Clang, Version: "clang-6.0.1", Released: "05 July 2018", Switches: clangSwitches},
		{Name: ICPC, Version: "icpc-18.0.3", Released: "16 May 2018", Switches: icpcSwitches},
	}
}

// Matrix returns the full MFEM compilation matrix: every compiler paired
// with every base optimization level and every switch combination —
// 68 + 72 + 104 = 244 compilations, as in the paper.
func Matrix() []Compilation {
	var out []Compilation
	for _, ci := range Compilers() {
		for _, lvl := range OptLevels {
			for _, sw := range ci.Switches {
				out = append(out, Compilation{Compiler: ci.Name, OptLevel: lvl, Switches: sw})
			}
		}
	}
	return out
}

// Baseline is the trusted baseline compilation of the MFEM study.
func Baseline() Compilation {
	return Compilation{Compiler: GCC, OptLevel: "-O0"}
}

// PerfReference is the compilation speedups are reported against (g++ -O2).
func PerfReference() Compilation {
	return Compilation{Compiler: GCC, OptLevel: "-O2"}
}
