//go:build !race

package fp

const raceEnabled = false
