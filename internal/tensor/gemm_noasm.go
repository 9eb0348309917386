//go:build !amd64

package tensor

// useAVX mirrors the amd64 toggle so shared tests compile; without
// assembly kernels it stays false.
var useAVX = false

// microKernel computes one rows×w tile from the operands t describes,
// using the portable generic kernel.
func microKernel(od []float32, ldo int, t *microOperands, pc, rows, w int, accumulate bool) {
	microGeneric(od, ldo, t, pc, rows, w, accumulate)
}
