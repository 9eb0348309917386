//go:build !amd64

package tensor

// hostTier is tierGeneric: this port has no assembly kernels.
func hostTier() kernelTier { return tierGeneric }

// microKernel computes one rows×w tile of a panel pair from the
// operands t describes, using the portable generic kernel.
func microKernel(od []float32, ldo int, t *microOperands, pc, rows, w int, accumulate bool) {
	microGeneric(od, ldo, t, pc, rows, w, accumulate)
}
