package tensor

import "fmt"

// Every backend runs the row-range kernels of this file, so all of them
// produce bit-identical results: parallel backends partition the
// output-row dimension only, leaving the per-element accumulation order
// untouched.

// --- shape validation --------------------------------------------------------

// matMulOperands validates a GEMM call of the given layout (layoutAB, TA
// or TB) and describes it: rank 2 for one product, rank 3 for a batch
// with the instance index outermost.
func matMulOperands(op string, layout gemmLayout, rank int, out, a, b *Tensor) gemmOperands {
	if len(a.shape) != rank || len(b.shape) != rank || len(out.shape) != rank {
		panic(fmt.Sprintf("tensor: %s requires %d-D tensors, got %v x %v into %v", op, rank, a.shape, b.shape, out.shape))
	}
	lead := rank - 2 // 1 when the instance index leads
	g := 1
	if lead == 1 {
		g = a.shape[0]
	}
	m, k := a.shape[lead], a.shape[lead+1]
	if layout == layoutTA {
		m, k = k, m
	}
	bk, n := b.shape[lead], b.shape[lead+1]
	if layout == layoutTB {
		bk, n = n, bk
	}
	if bk != k || lead == 1 && b.shape[0] != g {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v x %v", op, a.shape, b.shape))
	}
	if out.shape[lead] != m || out.shape[lead+1] != n || lead == 1 && out.shape[0] != g {
		panic(fmt.Sprintf("tensor: %s output shape %v for %v x %v", op, out.shape, a.shape, b.shape))
	}
	return gemmOperands{out: out.data, a: a.data, b: b.data, g: g, m: m, k: k, n: n, layout: layout}
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
