package tensor

// Packed GEMM engine. The kernel family (MatMul, MatMulTA, MatMulTB and
// the fused im2col GEMMs) is built from one register-blocked microkernel
// operating on panel-packed operands:
//
//   - B is packed into column panels of width nrTile: panel j holds
//     output columns [j*nrTile, (j+1)*nrTile) with element (p, c) at
//     offset p*nrTile+c, so the microkernel streams it sequentially.
//     Partial trailing panels are zero-padded to full width.
//   - A is packed per output row tile into an interleaved [kc][mrTile]
//     strip, again giving the microkernel unit-stride loads.
//   - The microkernel computes an mrTile×nrTile register tile, adding
//     terms for every output element in ascending-p order. kcBlock splits
//     the reduction so the active packed strips stay cache resident;
//     between blocks the tile is spilled to the output and reloaded,
//     which does not change any intermediate rounding.
//
// Bit-equivalence contract: for every output element the sequence of
// floating-point operations — one multiply and one add per p, terms in
// ascending-p order starting from zero — is identical across the
// reference kernels (matmul.go), the generic microkernel, and the SSE
// microkernel (gemm_amd64.s, which vectorizes across output columns so
// each lane is exactly the scalar sequence). Packing only moves values.
// The serial and parallel backends therefore stay bit-identical, and so
// does every dispatch decision between the packed and reference paths.
const (
	// mrTile × nrTile is the register tile: 4 output rows × 8 output
	// columns (two SSE vectors) per microkernel invocation.
	mrTile = 4
	nrTile = 8

	// kcBlock tiles the reduction dimension so the packed strips of A
	// (kcBlock*mrTile floats) and the active B panel stay cache
	// resident. Blocks ascend, so per-element accumulation order is
	// unchanged.
	kcBlock = 256

	// packedMinWork is the m*k*n multiply-add count below which packing
	// overhead outweighs the microkernel win and the reference kernels
	// run directly. Both sides of the threshold are bit-identical, so
	// the cutoff is purely a performance choice.
	packedMinWork = 1 << 15

	// packedMinRows is the minimum output-row count for the packed path:
	// the B-panel pack costs O(k·n) and amortizes over m/mrTile row
	// tiles, so skinny outputs (measured: the tiny workbench's m≈6 conv
	// GEMMs) run faster on the reference kernels.
	packedMinRows = 2 * mrTile
)

// packArenas recycles packing buffers across GEMM calls and goroutines:
// each kernel invocation borrows an Arena (see arena.go) for the length of
// the call, so steady-state GEMMs allocate nothing, collections or not.
var packArenas ArenaCache

// gemmShouldPack reports whether an m×k×n GEMM takes the packed path.
// The decision depends only on the problem shape, never on the backend,
// so serial and parallel runs dispatch identically.
func gemmShouldPack(m, k, n int) bool {
	return m >= packedMinRows && n >= nrTile && m*k*n >= packedMinWork
}

// panelsOf returns the number of column panels covering n output
// columns, including a zero-padded trailing partial panel.
func panelsOf(n int) int { return (n + nrTile - 1) / nrTile }

// tilesOf returns the number of row tiles covering m output rows.
func tilesOf(m int) int { return (m + mrTile - 1) / mrTile }

// packedBLen is the element count of a packed-B buffer for a [k, n]
// operand: every panel is padded to full nrTile width.
func packedBLen(k, n int) int { return panelsOf(n) * nrTile * k }

// --- operand packing ---------------------------------------------------------

// packBPanels packs panels [pan0,pan1) of a row-major [k, n] operand.
func packBPanels(bp, bd []float32, k, n, pan0, pan1 int) {
	for pan := pan0; pan < pan1; pan++ {
		j0 := pan * nrTile
		w := min(nrTile, n-j0)
		dst := bp[pan*k*nrTile:]
		if w == nrTile {
			for p := 0; p < k; p++ {
				s := bd[p*n+j0 : p*n+j0+nrTile : p*n+j0+nrTile]
				d := dst[p*nrTile : p*nrTile+nrTile : p*nrTile+nrTile]
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
				d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
			}
			continue
		}
		for p := 0; p < k; p++ {
			d := dst[p*nrTile : (p+1)*nrTile]
			c := copy(d, bd[p*n+j0:p*n+j0+w])
			for ; c < nrTile; c++ {
				d[c] = 0
			}
		}
	}
}

// packBPanelsTB packs panels [pan0,pan1) of a [n, k] operand whose
// transpose is the GEMM's B (the MatMulTB layout): element (p, c) of
// panel j is bd[(j*nrTile+c)*k + p].
func packBPanelsTB(bp, bd []float32, k, n, pan0, pan1 int) {
	for pan := pan0; pan < pan1; pan++ {
		j0 := pan * nrTile
		w := min(nrTile, n-j0)
		dst := bp[pan*k*nrTile : (pan+1)*k*nrTile]
		for c := 0; c < w; c++ {
			src := bd[(j0+c)*k : (j0+c+1)*k]
			for p, v := range src {
				dst[p*nrTile+c] = v
			}
		}
		for c := w; c < nrTile; c++ {
			for p := 0; p < k; p++ {
				dst[p*nrTile+c] = 0
			}
		}
	}
}

// packATile packs rows [i0, i0+rows) × reduction range [p0, p1) of a
// row-major operand with row stride lda into the interleaved [pc][mrTile]
// strip the microkernel consumes. Rows beyond the matrix (partial tiles)
// are zero-padded; the pad lanes are discarded by the edge microkernel
// and multiply against packed data only, so they never affect results.
func packATile(ap, ad []float32, lda, i0, rows, p0, p1 int) {
	pc := p1 - p0
	for r := 0; r < mrTile; r++ {
		if r >= rows {
			for p := 0; p < pc; p++ {
				ap[p*mrTile+r] = 0
			}
			continue
		}
		src := ad[(i0+r)*lda+p0 : (i0+r)*lda+p1]
		for p, v := range src {
			ap[p*mrTile+r] = v
		}
	}
}

// packATileT is packATile for a [k, m] operand read along columns (the
// MatMulTA layout): output row i is column i of the operand.
func packATileT(ap, ad []float32, m, i0, rows, p0, p1 int) {
	for p := p0; p < p1; p++ {
		base := p * m
		d := ap[(p-p0)*mrTile : (p-p0+1)*mrTile]
		for r := 0; r < rows; r++ {
			d[r] = ad[base+i0+r]
		}
		for r := rows; r < mrTile; r++ {
			d[r] = 0
		}
	}
}

// --- microkernels ------------------------------------------------------------

// microGeneric computes a rows×w output tile from packed strips in pure
// Go: the portable fallback and the edge-tile kernel. The per-element
// loop is the canonical accumulation sequence (ascending p, one multiply
// and one add per term).
func microGeneric(od []float32, ldo int, ap, bp []float32, pc, rows, w int, accumulate bool) {
	for r := 0; r < rows; r++ {
		orow := od[r*ldo : r*ldo+w]
		for c := range orow {
			var s float32
			if accumulate {
				s = orow[c]
			}
			for p := 0; p < pc; p++ {
				s += ap[p*mrTile+r] * bp[p*nrTile+c]
			}
			orow[c] = s
		}
	}
}

// --- drivers -----------------------------------------------------------------

// gemmPackedTiles computes output row tiles [t0, t1) of an m×n GEMM from
// pre-packed B panels. packA fills ap, a caller-provided strip of
// kcBlock*mrTile floats, with one A tile per (row tile, kc block);
// partitioning by whole row tiles keeps every output element's
// accumulation on a single goroutine.
func gemmPackedTiles(od []float32, m, k, n int, bp []float32, t0, t1 int, ap []float32,
	packA func(ap []float32, i0, rows, p0, p1 int)) {
	pans := panelsOf(n)
	for t := t0; t < t1; t++ {
		i0 := t * mrTile
		rows := min(mrTile, m-i0)
		for p0 := 0; p0 < k; p0 += kcBlock {
			p1 := min(p0+kcBlock, k)
			packA(ap, i0, rows, p0, p1)
			pc := p1 - p0
			acc := p0 > 0
			for pan := 0; pan < pans; pan++ {
				j0 := pan * nrTile
				w := min(nrTile, n-j0)
				bpan := bp[pan*k*nrTile+p0*nrTile:]
				out := od[i0*n+j0:]
				if rows == mrTile && w == nrTile {
					microKernel(out, n, ap, bpan, pc, acc)
				} else {
					microGeneric(out, n, ap, bpan, pc, rows, w, acc)
				}
			}
		}
	}
}

// gemmRun executes a packed GEMM end to end: pack B into panels, then
// sweep row tiles. With a nil pool it runs serially; with a pool it
// partitions the pack across panels and the compute across row tiles, so
// panel packing is done once and amortized over all workers.
func gemmRun(pool *Pool, od []float32, m, k, n int,
	packB func(bp []float32, pan0, pan1 int),
	packA func(ap []float32, i0, rows, p0, p1 int)) {
	ar := packArenas.getLocal()
	bp := ar.Get(packedBLen(k, n)).data
	pans := panelsOf(n)
	tiles := tilesOf(m)
	if pool == nil {
		packB(bp, 0, pans)
		gemmPackedTiles(od, m, k, n, bp, 0, tiles, ar.Get(kcBlock*mrTile).data, packA)
	} else {
		pool.ParallelFor(pans, rowGrain(k*nrTile, elemGrainElems), func(lo, hi int) {
			packB(bp, lo, hi)
		})
		pool.ParallelFor(tiles, rowGrain(mrTile*k*n, gemmGrainFlops), func(lo, hi int) {
			war := packArenas.getLocal()
			gemmPackedTiles(od, m, k, n, bp, lo, hi, war.Get(kcBlock*mrTile).data, packA)
			packArenas.putLocal(war)
		})
	}
	packArenas.putLocal(ar)
}
