package tensor

// Parallel is a Backend that row-partitions GEMMs (and the other hot
// kernels) across a bounded worker pool. It is bit-identical to Serial:
// both run the same row-range kernels, and partitioning is only ever
// along dimensions that keep each output element's accumulation sequence
// on a single goroutine in the reference order.
type Parallel struct {
	pool *Pool
}

// NewParallel returns a parallel backend. workers <= 0 selects the shared
// process-wide pool sized by GOMAXPROCS — the recommended configuration,
// since it bounds total compute goroutines across all pipeline devices.
// workers > 0 builds a dedicated pool of that size, which is how tests
// force awkward partitions.
func NewParallel(workers int) *Parallel {
	if workers <= 0 {
		return &Parallel{pool: SharedPool()}
	}
	return &Parallel{pool: NewPool(workers)}
}

// Name implements Backend.
func (*Parallel) Name() string { return "parallel" }

// Grain sizes: a chunk must amortize the submission overhead (a closure
// enqueue plus two atomics), so each one carries at least this many
// multiply-adds (GEMM) or element visits (elementwise / reshape kernels).
const (
	gemmGrainFlops  = 1 << 15
	elemGrainElems  = 1 << 12
	im2colGrainElem = 1 << 13
)

// rowGrain converts a per-row cost into a minimum number of rows per
// chunk for the given total grain.
func rowGrain(perRow, grain int) int {
	if perRow <= 0 {
		return 1
	}
	g := grain / perRow
	if g < 1 {
		g = 1
	}
	return g
}

// MatMulInto implements Backend. On the packed path B is packed into
// panels once (the pack itself partitioned across workers) and the
// compute is partitioned by whole output row tiles over the shared
// panels, so packing cost is amortized across the pool.
func (p *Parallel) MatMulInto(out, a, b *Tensor) {
	gemm(p.pool, matMulOperands("MatMulInto", layoutAB, 2, out, a, b))
}

// MatMulTAInto implements Backend.
func (p *Parallel) MatMulTAInto(out, a, b *Tensor) {
	gemm(p.pool, matMulOperands("MatMulTAInto", layoutTA, 2, out, a, b))
}

// MatMulTBInto implements Backend.
func (p *Parallel) MatMulTBInto(out, a, b *Tensor) {
	gemm(p.pool, matMulOperands("MatMulTBInto", layoutTB, 2, out, a, b))
}

// MatMulBatchInto implements Backend: packing partitions over flat
// (instance, panel) indices and compute over flat (instance, tile)
// indices, so a batch of skinny GEMMs still feeds every worker.
func (p *Parallel) MatMulBatchInto(out, a, b *Tensor) {
	gemm(p.pool, matMulOperands("MatMulBatchInto", layoutAB, 3, out, a, b))
}

// MatMulTABatchInto implements Backend.
func (p *Parallel) MatMulTABatchInto(out, a, b *Tensor) {
	gemm(p.pool, matMulOperands("MatMulTABatchInto", layoutTA, 3, out, a, b))
}

// MatMulTBBatchInto implements Backend.
func (p *Parallel) MatMulTBBatchInto(out, a, b *Tensor) {
	gemm(p.pool, matMulOperands("MatMulTBBatchInto", layoutTB, 3, out, a, b))
}

// ConvForwardInto implements Backend: the fused im2col pack is
// partitioned across column panels, the GEMM across row tiles.
func (p *Parallel) ConvForwardInto(out, w, x *Tensor, kh, kw, stride, pad int) {
	gemm(p.pool, convOperands("ConvForwardInto", layoutConv, out, w, x, kh, kw, stride, pad))
}

// ConvGradWeightInto implements Backend.
func (p *Parallel) ConvGradWeightInto(out, grad, x *Tensor, kh, kw, stride, pad int) {
	gemm(p.pool, convOperands("ConvGradWeightInto", layoutConvT, out, grad, x, kh, kw, stride, pad))
}

// Add implements Backend.
func (p *Parallel) Add(dst, a, b *Tensor) {
	checkElementwise3("Add", dst, a, b)
	p.pool.ParallelFor(len(dst.data), elemGrainElems, func(lo, hi int) {
		addRange(dst.data, a.data, b.data, lo, hi)
	})
}

// Sub implements Backend.
func (p *Parallel) Sub(dst, a, b *Tensor) {
	checkElementwise3("Sub", dst, a, b)
	p.pool.ParallelFor(len(dst.data), elemGrainElems, func(lo, hi int) {
		subRange(dst.data, a.data, b.data, lo, hi)
	})
}

// Mul implements Backend.
func (p *Parallel) Mul(dst, a, b *Tensor) {
	checkElementwise3("Mul", dst, a, b)
	p.pool.ParallelFor(len(dst.data), elemGrainElems, func(lo, hi int) {
		mulRange(dst.data, a.data, b.data, lo, hi)
	})
}

// Scale implements Backend.
func (p *Parallel) Scale(dst, a *Tensor, s float32) {
	mustSameShape("Scale", dst, a)
	p.pool.ParallelFor(len(dst.data), elemGrainElems, func(lo, hi int) {
		scaleRange(dst.data, a.data, s, lo, hi)
	})
}

// Axpy implements Backend.
func (p *Parallel) Axpy(dst *Tensor, alpha float32, src *Tensor) {
	mustSameShape("Axpy", dst, src)
	p.pool.ParallelFor(len(dst.data), elemGrainElems, func(lo, hi int) {
		axpyRange(dst.data, src.data, alpha, lo, hi)
	})
}

// Im2ColInto implements Backend. Rows of the column matrix are owned by
// single (channel, tap) pairs, so the row dimension partitions cleanly.
func (p *Parallel) Im2ColInto(out, x *Tensor, kh, kw, stride, pad int) {
	n, c, h, w, oh, ow := checkIm2ColOut(out, x, kh, kw, stride, pad)
	rows := c * kh * kw
	p.pool.ParallelFor(rows, rowGrain(n*oh*ow, im2colGrainElem), func(lo, hi int) {
		im2colRows(out.data, x.data, n, c, h, w, kh, kw, oh, ow, stride, pad, lo, hi)
	})
}

// Col2ImInto implements Backend. Accumulation only overlaps within one
// input channel, so the channel dimension partitions cleanly.
func (p *Parallel) Col2ImInto(out, cols *Tensor, kh, kw, stride, pad int) {
	n, c, h, w, oh, ow := checkCol2ImOut(out, cols, kh, kw, stride, pad)
	p.pool.ParallelFor(c, rowGrain(kh*kw*n*oh*ow, im2colGrainElem), func(lo, hi int) {
		col2imChannels(out.data, cols.data, n, c, h, w, kh, kw, oh, ow, stride, pad, lo, hi)
	})
}

var _ Backend = (*Parallel)(nil)
