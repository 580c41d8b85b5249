//go:build race

package hier

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
