//go:build race

package fp

// raceEnabled reports that the race detector is on; its instrumentation
// changes the code the compiler generates for the reference reductions,
// so the NaN they return when two lanes hold NaNs, and with it the
// pinned digest, differs from an uninstrumented build.
const raceEnabled = true
