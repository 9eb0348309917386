//go:build !amd64

package tensor

// hostTier is tierGeneric: this port has no assembly kernels.
func hostTier() kernelTier { return tierGeneric }

// microKernel computes one rows×w tile of a panel pair from the
// operands t describes, using the portable generic kernel.
func microKernel(od []float32, ldo int, t *microOperands, pc, rows, w int, accumulate bool) {
	microGeneric(od, ldo, t, pc, rows, w, accumulate)
}

// transposeLanes reports false: without the vector kernel the pack's
// loop takes every conv.
func transposeLanes(dst, xd []float32, g convGeom, j0, w int) bool { return false }
