//go:build race

package engine

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
