//go:build race

package link

// raceEnabled reports that the race detector is on; its instrumentation
// allocates, so allocation-count tests skip.
const raceEnabled = true
