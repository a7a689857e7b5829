//go:build race

package fleet

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
