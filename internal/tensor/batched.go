package tensor

import "fmt"

// Batched GEMM: G independent products of identical shape, laid out as
// 3-D tensors with the instance index outermost. Attention is the
// motivating workload — per-(sample, head) score and context GEMMs are
// skinny (m ≈ sequence length, k ≈ head width), so a lone instance never
// clears the packed-path work threshold and the 2-D dispatch heuristic
// would strand the whole family on the reference kernels. The batched
// entry points judge the dispatch on the batch as a whole and amortize
// the packed engine's fixed costs (arena borrow, buffer sizing, pool
// submission) across all G instances.
//
// Bit-equivalence contract: instance g of a batched call is bit-identical
// to the corresponding 2-D call on the g-th slices — both paths run the
// same per-element accumulation sequence (see gemm.go), so dispatch stays
// a pure performance choice and every backend stays interchangeable.

// --- shape validation --------------------------------------------------------

func matMulBatchDims(a, b *Tensor) (g, m, k, n int) {
	if len(a.shape) != 3 || len(b.shape) != 3 {
		panic(fmt.Sprintf("tensor: MatMulBatch requires 3-D tensors, got %v and %v", a.shape, b.shape))
	}
	g, m, k = a.shape[0], a.shape[1], a.shape[2]
	if b.shape[0] != g || b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulBatch shape mismatch %v x %v", a.shape, b.shape))
	}
	return g, m, k, b.shape[2]
}

func matMulTABatchDims(a, b *Tensor) (g, m, k, n int) {
	if len(a.shape) != 3 || len(b.shape) != 3 {
		panic(fmt.Sprintf("tensor: MatMulTABatch requires 3-D tensors, got %v and %v", a.shape, b.shape))
	}
	g, k, m = a.shape[0], a.shape[1], a.shape[2]
	if b.shape[0] != g || b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTABatch shape mismatch %v x %v", a.shape, b.shape))
	}
	return g, m, k, b.shape[2]
}

func matMulTBBatchDims(a, b *Tensor) (g, m, k, n int) {
	if len(a.shape) != 3 || len(b.shape) != 3 {
		panic(fmt.Sprintf("tensor: MatMulTBBatch requires 3-D tensors, got %v and %v", a.shape, b.shape))
	}
	g, m, k = a.shape[0], a.shape[1], a.shape[2]
	if b.shape[0] != g || b.shape[2] != k {
		panic(fmt.Sprintf("tensor: MatMulTBBatch shape mismatch %v x %v", a.shape, b.shape))
	}
	return g, m, k, b.shape[1]
}

func checkBatchOutShape(op string, out *Tensor, g, m, n int) {
	if len(out.shape) != 3 || out.shape[0] != g || out.shape[1] != m || out.shape[2] != n {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d %d]", op, out.shape, g, m, n))
	}
}

// --- dispatch ----------------------------------------------------------------

// gemmShouldPackBatch decides packed-vs-reference dispatch for a batch of
// g identically shaped GEMMs. One instance keeps the 2-D heuristic
// verbatim. For g > 1 the row floor relaxes to a single full register
// tile and the work threshold is judged on the whole batch: the packed
// engine's fixed per-call costs are paid once, so skinny-but-many shapes
// (per-head attention scores, m ≈ sequence length) amortize what a lone
// skinny call cannot. The decision depends only on the shape, never on
// the backend, so serial and parallel runs dispatch identically — and
// either path is bit-identical anyway.
func gemmShouldPackBatch(g, m, k, n int) bool {
	if g <= 1 {
		return gemmShouldPack(m, k, n)
	}
	return m >= mrTile && n >= nrTile && g*m*k*n >= packedMinWork
}

// --- driver ------------------------------------------------------------------

// matMulBatchDriver executes a batch of g m×k×n GEMMs. The per-variant
// hooks receive per-instance slices, so one driver serves all three
// operand layouts. Work is partitioned over flat (instance, row) or
// (instance, tile) indices — each output element's accumulation stays
// whole on one goroutine, preserving the bit-equivalence contract.
func matMulBatchDriver(pool *Pool, od, ad, bd []float32, g, m, k, n int,
	rowsRef func(odq, adq, bdq []float32, lo, hi int),
	packB func(bp, bdq []float32, pan0, pan1 int),
	packA func(ap, adq []float32, i0, rows, p0, p1 int)) {
	aStride, bStride, oStride := m*k, k*n, m*n
	if !gemmShouldPackBatch(g, m, k, n) {
		run := func(lo, hi int) {
			for r := lo; r < hi; {
				q, i0 := r/m, r%m
				rows := min(m-i0, hi-r)
				rowsRef(od[q*oStride:(q+1)*oStride], ad[q*aStride:(q+1)*aStride],
					bd[q*bStride:(q+1)*bStride], i0, i0+rows)
				r += rows
			}
		}
		if pool == nil {
			run(0, g*m)
			return
		}
		pool.ParallelFor(g*m, rowGrain(k*n, gemmGrainFlops), run)
		return
	}

	pans, tiles := panelsOf(n), tilesOf(m)
	bpStride := packedBLen(k, n)
	ar := packArenas.getLocal()
	bp := ar.Get(g * bpStride).data
	packRange := func(lo, hi int) {
		for f := lo; f < hi; {
			q, pan0 := f/pans, f%pans
			cnt := min(pans-pan0, hi-f)
			packB(bp[q*bpStride:(q+1)*bpStride], bd[q*bStride:(q+1)*bStride], pan0, pan0+cnt)
			f += cnt
		}
	}
	tileRange := func(ap []float32, lo, hi int) {
		for f := lo; f < hi; {
			q, t0 := f/tiles, f%tiles
			cnt := min(tiles-t0, hi-f)
			adq := ad[q*aStride : (q+1)*aStride]
			gemmPackedTiles(od[q*oStride:(q+1)*oStride], m, k, n,
				bp[q*bpStride:(q+1)*bpStride], t0, t0+cnt, ap,
				func(ap []float32, i0, rows, p0, p1 int) { packA(ap, adq, i0, rows, p0, p1) })
			f += cnt
		}
	}
	if pool == nil {
		packRange(0, g*pans)
		tileRange(ar.Get(kcBlock*mrTile).data, 0, g*tiles)
	} else {
		pool.ParallelFor(g*pans, rowGrain(k*nrTile, elemGrainElems), packRange)
		pool.ParallelFor(g*tiles, rowGrain(mrTile*k*n, gemmGrainFlops), func(lo, hi int) {
			war := packArenas.getLocal()
			tileRange(war.Get(kcBlock*mrTile).data, lo, hi)
			packArenas.putLocal(war)
		})
	}
	packArenas.putLocal(ar)
}

func matMulBatchDriverPlain(pool *Pool, od, ad, bd []float32, g, m, k, n int) {
	matMulBatchDriver(pool, od, ad, bd, g, m, k, n,
		func(odq, adq, bdq []float32, lo, hi int) { matMulRowsRef(odq, adq, bdq, k, n, lo, hi) },
		func(bp, bdq []float32, pan0, pan1 int) { packBPanels(bp, bdq, k, n, pan0, pan1) },
		func(ap, adq []float32, i0, rows, p0, p1 int) { packATile(ap, adq, k, i0, rows, p0, p1) })
}

func matMulTABatchDriver(pool *Pool, od, ad, bd []float32, g, m, k, n int) {
	matMulBatchDriver(pool, od, ad, bd, g, m, k, n,
		func(odq, adq, bdq []float32, lo, hi int) { matMulTARowsRef(odq, adq, bdq, k, m, n, lo, hi) },
		func(bp, bdq []float32, pan0, pan1 int) { packBPanels(bp, bdq, k, n, pan0, pan1) },
		func(ap, adq []float32, i0, rows, p0, p1 int) { packATileT(ap, adq, m, i0, rows, p0, p1) })
}

func matMulTBBatchDriver(pool *Pool, od, ad, bd []float32, g, m, k, n int) {
	matMulBatchDriver(pool, od, ad, bd, g, m, k, n,
		func(odq, adq, bdq []float32, lo, hi int) { matMulTBRowsRef(odq, adq, bdq, k, n, lo, hi) },
		func(bp, bdq []float32, pan0, pan1 int) { packBPanelsTB(bp, bdq, k, n, pan0, pan1) },
		func(ap, adq []float32, i0, rows, p0, p1 int) { packATile(ap, adq, k, i0, rows, p0, p1) })
}
