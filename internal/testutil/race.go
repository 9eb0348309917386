//go:build race

package testutil

// Race reports whether the test binary was built with the race detector.
// Its instrumentation changes which operand of a commutative float
// operation the compiler puts first, so where two NaNs meet, a scalar
// loop can return the other NaN than it does in a plain build: the
// bit-for-bit kernel oracles compare NaN payloads only when Race is
// false.
const Race = true
