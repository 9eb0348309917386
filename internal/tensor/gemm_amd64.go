//go:build amd64

package tensor

// useAsmMicro selects the AVX microkernel for full and edge register
// tiles. It is set once, at start-up, from what the CPU and the OS
// support (hasAVX), so an amd64 host without AVX runs the generic kernel
// as every other port does. It is a package variable (not a constant) so
// the bit-equivalence suite can force the generic path and pin the two
// implementations identical; the kernels themselves are bit-equal by
// construction, so flipping it never changes results.
var useAsmMicro = hasAVX()

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers across context switches (CPUID.1:ECX OSXSAVE and AVX, XCR0
// bits 1–2), in gemm_amd64.s.
func hasAVX() bool

// microKernelAVX is the assembly microkernel (gemm_amd64.s): a full
// mrTile×nrTile register tile using AVX — each of the eight output
// columns occupies one vector lane, so every lane performs exactly the
// scalar ascending-p multiply/add sequence and the result is
// bit-identical to microGeneric. accumulate is 0 (tile starts at zero)
// or 1 (tile resumes from the values in out).
//
//go:noescape
func microKernelAVX(out *float32, ldo int, ap, bp *float32, pc int, accumulate int)

// microKernel computes one full mrTile×nrTile tile from packed strips.
func microKernel(od []float32, ldo int, ap, bp []float32, pc int, accumulate bool) {
	if useAsmMicro {
		acc := 0
		if accumulate {
			acc = 1
		}
		microKernelAVX(&od[0], ldo, &ap[0], &bp[0], pc, acc)
		return
	}
	microGeneric(od, ldo, ap, bp, pc, mrTile, nrTile, accumulate)
}

// microEdge computes a rows×w edge tile (rows < mrTile or w < nrTile):
// the AVX kernel fills a full tile on the stack and only the rows×w
// corner is copied out. The discarded lanes multiply the packed
// operands' zero padding; every kept lane is still the scalar sequence.
func microEdge(od []float32, ldo int, ap, bp []float32, pc, rows, w int, accumulate bool) {
	if !useAsmMicro {
		microGeneric(od, ldo, ap, bp, pc, rows, w, accumulate)
		return
	}
	var tile [mrTile * nrTile]float32
	if accumulate {
		for r := 0; r < rows; r++ {
			copy(tile[r*nrTile:r*nrTile+w], od[r*ldo:])
		}
	}
	microKernel(tile[:], nrTile, ap, bp, pc, accumulate)
	for r := 0; r < rows; r++ {
		copy(od[r*ldo:r*ldo+w], tile[r*nrTile:])
	}
}
