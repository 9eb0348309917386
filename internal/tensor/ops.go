package tensor

import "fmt"

// AddInto and ScaleInPlace run on the process-default Backend. Parallel
// backends partition the flat index range, which cannot change results
// because every element is computed independently.

// AddInto accumulates src into dst (dst += src). Shapes must match.
func AddInto(dst, src *Tensor) { Default().Axpy(dst, 1, src) }

// ScaleInPlace multiplies every element of t by s.
func ScaleInPlace(t *Tensor, s float32) { Default().Scale(t, t, s) }

// ArgMaxRow returns, for a 2-D tensor, the column index of the maximum in
// each row. Ties resolve to the lowest index.
func ArgMaxRow(t *Tensor) []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRow requires 2-D tensor, got shape %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best, bestIdx := t.data[r*cols], 0
		for c := 1; c < cols; c++ {
			if v := t.data[r*cols+c]; v > best {
				best, bestIdx = v, c
			}
		}
		out[r] = bestIdx
	}
	return out
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// --- index-range kernels -----------------------------------------------------

func addRange(dd, ad, bd []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		dd[i] = ad[i] + bd[i]
	}
}

func subRange(dd, ad, bd []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		dd[i] = ad[i] - bd[i]
	}
}

func mulRange(dd, ad, bd []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		dd[i] = ad[i] * bd[i]
	}
}

func scaleRange(dd, ad []float32, s float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		dd[i] = ad[i] * s
	}
}

func axpyRange(dd, sd []float32, alpha float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		dd[i] += float32(alpha * sd[i])
	}
}
