package tensor

import "fmt"

// Every backend runs the row-range kernels of this file, so all of them
// produce bit-identical results: parallel backends partition the
// output-row dimension only, leaving the per-element accumulation order
// untouched.

// --- shape validation --------------------------------------------------------

func matMulDims(a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D tensors, got %v and %v", a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	return m, k, b.shape[1]
}

func matMulTADims(a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulTA requires 2-D tensors, got %v and %v", a.shape, b.shape))
	}
	k, m = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTA inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	return m, k, b.shape[1]
}

func matMulTBDims(a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulTB requires 2-D tensors, got %v and %v", a.shape, b.shape))
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTB inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	return m, k, b.shape[0]
}

func checkOutShape(op string, out *Tensor, m, n int) {
	if len(out.shape) != 2 || out.shape[0] != m || out.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d]", op, out.shape, m, n))
	}
}

// --- reference kernels -------------------------------------------------------

// The reference kernels define the package's canonical accumulation: for
// every output element, one multiply and one add per reduction index,
// terms in ascending-p order, starting from zero. They are retained both
// as the oracle the packed kernels (gemm.go) are pinned bit-identical to
// and as the fast path for problems too small to amortize packing. All
// take an explicit row range [lo,hi) so both backends partition them
// identically to the old row kernels.

// matMulRowsRef computes rows [lo,hi) of out = a·b with a cache-friendly
// ikj loop (a: [m,k] row-major, b: [k,n] row-major).
func matMulRowsRef(od, ad, bd []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := od[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		arow := ad[i*k : (i+1)*k]
		for p, av := range arow {
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulTARowsRef computes rows [lo,hi) of out = aᵀ·b (a: [k,m],
// b: [k,n]). Row i of the output reads column i of a.
func matMulTARowsRef(od, ad, bd []float32, k, m, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := od[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := ad[p*m+i]
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulTBRowsRef computes rows [lo,hi) of out = a·bᵀ (a: [m,k],
// b: [n,k]) as dense row-dot-row products.
func matMulTBRowsRef(od, ad, bd []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		orow := od[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			orow[j] = s
		}
	}
}

// --- drivers -----------------------------------------------------------------

// The drivers pick between the reference kernels (small problems) and
// the packed engine, serially (pool == nil) or partitioned over a worker
// pool. Both paths and both schedules produce identical bits.

func matMulDriver(pool *Pool, od, ad, bd []float32, m, k, n int) {
	if !gemmShouldPack(m, k, n) {
		if pool == nil {
			matMulRowsRef(od, ad, bd, k, n, 0, m)
			return
		}
		pool.ParallelFor(m, rowGrain(k*n, gemmGrainFlops), func(lo, hi int) {
			matMulRowsRef(od, ad, bd, k, n, lo, hi)
		})
		return
	}
	gemmRun(pool, od, m, k, n,
		func(bp []float32, pan0, pan1 int) { packBPanels(bp, bd, k, n, pan0, pan1) },
		func(ap []float32, i0, rows, p0, p1 int) { packATile(ap, ad, k, i0, rows, p0, p1) })
}

func matMulTADriver(pool *Pool, od, ad, bd []float32, m, k, n int) {
	if !gemmShouldPack(m, k, n) {
		if pool == nil {
			matMulTARowsRef(od, ad, bd, k, m, n, 0, m)
			return
		}
		pool.ParallelFor(m, rowGrain(k*n, gemmGrainFlops), func(lo, hi int) {
			matMulTARowsRef(od, ad, bd, k, m, n, lo, hi)
		})
		return
	}
	gemmRun(pool, od, m, k, n,
		func(bp []float32, pan0, pan1 int) { packBPanels(bp, bd, k, n, pan0, pan1) },
		func(ap []float32, i0, rows, p0, p1 int) { packATileT(ap, ad, m, i0, rows, p0, p1) })
}

func matMulTBDriver(pool *Pool, od, ad, bd []float32, m, k, n int) {
	if !gemmShouldPack(m, k, n) {
		if pool == nil {
			matMulTBRowsRef(od, ad, bd, k, n, 0, m)
			return
		}
		pool.ParallelFor(m, rowGrain(k*n, gemmGrainFlops), func(lo, hi int) {
			matMulTBRowsRef(od, ad, bd, k, n, lo, hi)
		})
		return
	}
	gemmRun(pool, od, m, k, n,
		func(bp []float32, pan0, pan1 int) { packBPanelsTB(bp, bd, k, n, pan0, pan1) },
		func(ap []float32, i0, rows, p0, p1 int) { packATile(ap, ad, k, i0, rows, p0, p1) })
}
