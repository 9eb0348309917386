//go:build amd64

package tensor

// useAVX selects every AVX kernel: the GEMM microkernel for full and
// edge register tiles, and the tanh and exp lanes (transcend_amd64.s).
// It is set once, at start-up, from what the CPU and the OS support
// (hasAVX), so an amd64 host without AVX runs the generic kernels as
// every other port does. It is a package variable (not a constant) so
// the bit-equivalence suites can force the generic paths and pin the two
// implementations identical; the kernels themselves are bit-equal by
// construction, so flipping it never changes results.
var useAVX = hasAVX()

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers across context switches (CPUID.1:ECX OSXSAVE and AVX, XCR0
// bits 1–2), in gemm_amd64.s.
func hasAVX() bool

// microKernelAVX is the assembly microkernel (gemm_amd64.s): a full
// mrTile×nrTile register tile using AVX, reading A element (r, p) at
// a[r*rs+p*ps] and row p of B at b[p*ldb] (strides in floats, see
// microOperands). Each of the eight output columns occupies one vector
// lane, so every lane performs exactly the scalar ascending-p
// multiply/add sequence and the result is bit-identical to microGeneric.
// With accumulate the tile resumes from the values in out, else it starts
// at zero.
//
//go:noescape
func microKernelAVX(out *float32, ldo int, a *float32, rs, ps int, b *float32, ldb, pc int, accumulate bool)

// microKernel computes one full mrTile×nrTile tile from the operands t
// describes.
func microKernel(od []float32, ldo int, t microOperands, pc int, accumulate bool) {
	if !useAVX {
		microGeneric(od, ldo, t, pc, mrTile, nrTile, accumulate)
		return
	}
	// Go cannot bounds-check the assembly: index the last A, B and output
	// float it touches here, so a description that overruns its slice
	// panics instead of reading past it.
	_ = t.a[(mrTile-1)*t.rs+(pc-1)*t.ps]
	_ = t.b[(pc-1)*t.ldb+nrTile-1]
	_ = od[(mrTile-1)*ldo+nrTile-1]
	microKernelAVX(&od[0], ldo, &t.a[0], t.rs, t.ps, &t.b[0], t.ldb, pc, accumulate)
}

// microEdge computes a rows×w edge tile (rows < mrTile or w < nrTile):
// the AVX kernel fills a full tile on the stack and only the rows×w
// corner is copied out. The kernel reads all mrTile rows of A and nrTile
// columns of B, so the engine hands it a packed, zero-padded operand on
// each ragged side (see gemmOperands.tiles); the discarded lanes multiply
// that padding, and every kept lane is still the scalar sequence.
func microEdge(od []float32, ldo int, t microOperands, pc, rows, w int, accumulate bool) {
	if !useAVX {
		microGeneric(od, ldo, t, pc, rows, w, accumulate)
		return
	}
	var tile [mrTile * nrTile]float32
	if accumulate {
		for r := 0; r < rows; r++ {
			copy(tile[r*nrTile:r*nrTile+w], od[r*ldo:])
		}
	}
	microKernel(tile[:], nrTile, t, pc, accumulate)
	for r := 0; r < rows; r++ {
		copy(od[r*ldo:r*ldo+w], tile[r*nrTile:])
	}
}
