//go:build !amd64

package tensor

// useAsmMicro mirrors the amd64 toggle so shared tests compile; without
// an assembly microkernel it stays false.
var useAsmMicro = false

// microKernel computes one full mrTile×nrTile tile from packed strips
// using the portable generic kernel.
func microKernel(od []float32, ldo int, ap, bp []float32, pc int, accumulate bool) {
	microGeneric(od, ldo, ap, bp, pc, mrTile, nrTile, accumulate)
}

// microEdge computes a rows×w edge tile with the generic kernel.
func microEdge(od []float32, ldo int, ap, bp []float32, pc, rows, w int, accumulate bool) {
	microGeneric(od, ldo, ap, bp, pc, rows, w, accumulate)
}
