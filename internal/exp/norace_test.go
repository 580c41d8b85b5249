//go:build !race

package exp

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
