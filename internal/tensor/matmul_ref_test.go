package tensor

// --- reference kernels -------------------------------------------------------

// The reference kernels define the package's canonical accumulation: for
// every output element, one multiply and one add per reduction index,
// terms in ascending-p order, starting from zero. They are the oracle
// the packed engine (gemm.go) is pinned bit-identical to: the textbook
// loops, with none of its tiling, packing or strides. All take an
// explicit row range [lo,hi).

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
