//go:build amd64

package tensor

// useAVX selects every AVX kernel: the GEMM microkernel for every
// register tile, full or edge, the tanh and exp lanes
// (transcend_amd64.s), the stride-1 depthwise conv's forward and
// input-gradient lanes (dwconv_amd64.s), and the channel-tail and ReLU
// gate lanes (tail_amd64.s). It is set once, at start-up,
// from what the CPU and the OS support (hasAVX), so an amd64 host
// without AVX runs the generic kernels as every other port does. It is a package variable (not a constant) so
// the bit-equivalence suites can force the generic paths and pin the two
// implementations identical; the kernels themselves are bit-equal by
// construction, so flipping it never changes results.
var useAVX = hasAVX()

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers across context switches (CPUID.1:ECX OSXSAVE and AVX, XCR0
// bits 1–2), in gemm_amd64.s.
func hasAVX() bool

// microKernelAVX is the assembly microkernel (gemm_amd64.s): a rows×w
// register tile (at most mrTile×nrTile) using AVX, reading A element
// (r, p) at a[r*rs+p*ps] (strides in floats) and row p of B at
// b[boff[p]] (offsets in floats, see microOperands). Each output column
// occupies one vector lane, so every lane performs exactly the scalar
// ascending-p multiply/add sequence and the result is bit-identical to
// microGeneric. An edge tile (rows < mrTile or w < nrTile) reads A rows
// < rows only and loads and stores only its rows×w corner of out,
// through masked moves; every tile reads nrTile floats of each B row.
// With accumulate the tile resumes from the values in out, else it
// starts at zero.
//
//go:noescape
func microKernelAVX(out *float32, ldo int, a *float32, rs, ps int, b *float32, boff *int32, pc, rows, w int, accumulate bool)

// microKernel computes one rows×w tile from the operands t describes:
// the one kernel entry for full and edge tiles alike.
func microKernel(od []float32, ldo int, t *microOperands, pc, rows, w int, accumulate bool) {
	if !useAVX {
		microGeneric(od, ldo, t, pc, rows, w, accumulate)
		return
	}
	// Go cannot bounds-check the assembly: index the last A, B and output
	// float it touches here, so a description that overruns its slice
	// panics instead of reading past it. B's offset table ascends, so its
	// last row is the furthest.
	_ = t.a[(rows-1)*t.rs+(pc-1)*t.ps]
	_ = t.b[int(t.boff[pc-1])+nrTile-1]
	_ = od[(rows-1)*ldo+w-1]
	microKernelAVX(&od[0], ldo, &t.a[0], t.rs, t.ps, &t.b[0], &t.boff[0], pc, rows, w, accumulate)
}
