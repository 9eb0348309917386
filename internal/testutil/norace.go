//go:build !race

package testutil

// Race reports whether the test binary was built with the race detector
// (see race.go).
const Race = false
