package comp

// Binary-compatibility hazards. The paper found that "when icpc and g++
// object files were linked together, the resulting executable would
// sometimes fail with a segmentation fault" (§3.3), driving the ~20% File
// Bisect failure rate for icpc, and that some symbol-level "Frankenbinaries"
// crash for every compiler (Table 2: g++ 51/78, icpc 585/778, clang 24/24
// Symbol Bisect successes). The hazards below are deterministic functions
// of the compilation and the file, so a given bisect run either always
// works or always crashes — matching how a real incompatibility behaves.

// FileMixHazard reports whether an executable that mixes object file `file`
// compiled by `variable` with the remaining files compiled by `baseline`
// crashes at startup. Only cross-vendor mixes are hazardous.
func FileMixHazard(variable, baseline Compilation, file string) bool {
	if !crossVendor(variable.Compiler, baseline.Compiler) {
		return false
	}
	// Only the Intel/GNU combination exhibited the segfaults in the study
	// (§3.3); the IBM compiler interoperated with g++ objects in the
	// Laghos searches.
	if variable.Compiler != ICPC && baseline.Compiler != ICPC {
		return false
	}
	// ~1.5% of (compilation, file) pairs are poisoned; with tens of files
	// per program, roughly a fifth of icpc bisect runs hit at least one.
	return tripleHash(variable).part(baseline.Compiler).part(file).part("abi-file")%64 == 0
}

// SymbolMixHazard reports whether the strong/weak symbol-override executable
// for the given file crashes. Symbol mixing is riskier than file mixing
// (two copies of the same translation unit coexist), so it can fail even
// within one vendor. Rates per compiler are personality parameters tuned to
// the paper's Table 2.
func SymbolMixHazard(variable Compilation, file string) bool {
	var pct int
	switch variable.Compiler {
	case GCC:
		pct = 30
	case Clang:
		pct = 0
	case ICPC:
		pct = 22
	case XLC:
		pct = 0 // the Laghos symbol searches all linked and ran (§3.4)
	default:
		pct = 10
	}
	return pct > 0 && uint64(tripleHash(variable).part(file).part("abi-symbol"))%100 < uint64(pct)
}

// crossVendor reports whether two compilers come from different vendors
// with distinct C++ runtime implementations.
func crossVendor(a, b string) bool {
	if a == b {
		return false
	}
	vendor := func(c string) string {
		switch c {
		case GCC, Clang:
			return "gnu-compatible"
		case ICPC:
			return "intel"
		case XLC:
			return "ibm"
		default:
			return c
		}
	}
	return vendor(a) != vendor(b)
}
