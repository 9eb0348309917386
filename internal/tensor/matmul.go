package tensor

import "fmt"

// Every backend runs every GEMM on the one packed engine (gemm.go), so
// all of them produce bit-identical results: a pool partitions the
// output's row tiles only, leaving the per-element accumulation order
// untouched. This file validates the MatMul family's shapes and
// describes a call to the engine.

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
	return gemmOperands{out: out.data, a: a.data, b: b.data, g: g, m: m, k: k, n: n,
		as: m * k, bs: k * n, layout: layout}
}
