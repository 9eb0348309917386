package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Adversarial batched shapes: skinny attention-style instances (m ≈
// sequence length, k ≈ head width) that individually fall below the 2-D
// packed-path thresholds but clear the batch threshold, degenerate
// seq-len-1 instances, primes, single-instance batches (which must
// dispatch exactly like the 2-D heuristic), and batches straddling both
// sides of gemmShouldPackBatch.
var adversarialBatchShapes = []struct{ g, m, k, n int }{
	{1, 1, 1, 1},
	{1, 13, 17, 19},  // g=1: must behave like the 2-D call
	{1, 64, 300, 65}, // g=1 on the packed path
	{2, 1, 3, 2},     // seq-len-1 instances
	{3, 1, 8, 1},
	{16, 16, 8, 16}, // per-head attention scores: skinny but many
	{16, 16, 16, 8}, // per-head attention context
	{8, 4, 8, 8},    // exactly the relaxed row floor
	{8, 3, 8, 8},    // one row below it: reference path
	{5, 7, 11, 13},  // primes
	{4, 5, 300, 9},  // k spanning kcBlock boundaries
	{2, 31, 64, 33},
	{32, 2, 2, 2}, // many tiny instances below any threshold
}

// batchRef computes the per-instance reference result for a batched op.
func batchRef(g, m, n int, inst func(q int, od []float32)) *Tensor {
	out := New(g, m, n)
	for q := 0; q < g; q++ {
		inst(q, out.data[q*m*n:(q+1)*m*n])
	}
	return out
}

// TestBatchedGemmMatchesReferenceBits pins every batched entry point
// bit-for-bit to instance-by-instance reference kernels across both
// backends, both dispatch paths, and adversarial values (±0, NaN, ±Inf).
func TestBatchedGemmMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	backends := []Backend{Serial{}, NewParallel(3)}
	for _, s := range adversarialBatchShapes {
		for which := 0; which < 3; which++ {
			a := New(s.g, s.m, s.k)
			b := New(s.g, s.k, s.n)
			aT := New(s.g, s.k, s.m)
			bT := New(s.g, s.n, s.k)
			fillAdversarial(rng, a, which)
			fillAdversarial(rng, b, which+1)
			// Per-instance transposes so TA/TB see the same products.
			for q := 0; q < s.g; q++ {
				for i := 0; i < s.m; i++ {
					for p := 0; p < s.k; p++ {
						aT.data[q*s.k*s.m+p*s.m+i] = a.data[q*s.m*s.k+i*s.k+p]
					}
				}
				for p := 0; p < s.k; p++ {
					for j := 0; j < s.n; j++ {
						bT.data[q*s.n*s.k+j*s.k+p] = b.data[q*s.k*s.n+p*s.n+j]
					}
				}
			}

			ref := batchRef(s.g, s.m, s.n, func(q int, od []float32) {
				matMulRowsRef(od, a.data[q*s.m*s.k:], b.data[q*s.k*s.n:], s.k, s.n, 0, s.m)
			})
			refTA := batchRef(s.g, s.m, s.n, func(q int, od []float32) {
				matMulTARowsRef(od, aT.data[q*s.k*s.m:], b.data[q*s.k*s.n:], s.k, s.m, s.n, 0, s.m)
			})
			refTB := batchRef(s.g, s.m, s.n, func(q int, od []float32) {
				matMulTBRowsRef(od, a.data[q*s.m*s.k:], bT.data[q*s.n*s.k:], s.k, s.n, 0, s.m)
			})

			for _, be := range backends {
				label := fmt.Sprintf("g=%d m=%d k=%d n=%d specials=%d be=%s",
					s.g, s.m, s.k, s.n, which, be.Name())
				got := New(s.g, s.m, s.n)
				be.MatMulBatchInto(got, a, b)
				if diff := bitsDiff(got, ref); diff != "" {
					t.Errorf("MatMulBatch != reference (%s): %s", label, diff)
				}
				be.MatMulTABatchInto(got, aT, b)
				if diff := bitsDiff(got, refTA); diff != "" {
					t.Errorf("MatMulTABatch != reference (%s): %s", label, diff)
				}
				be.MatMulTBBatchInto(got, a, bT)
				if diff := bitsDiff(got, refTB); diff != "" {
					t.Errorf("MatMulTBBatch != reference (%s): %s", label, diff)
				}
			}
		}
	}
}

// TestBatchedMatchesLoopOf2D pins the batched entry points against a loop
// of the public 2-D calls on the same backend: a batched call must be a
// pure fusion, never a numeric change, whichever side of the dispatch
// heuristic either form lands on.
func TestBatchedMatchesLoopOf2D(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	backends := []Backend{Serial{}, NewParallel(3)}
	for _, s := range adversarialBatchShapes {
		a := Rand(rng, -1, 1, s.g, s.m, s.k)
		b := Rand(rng, -1, 1, s.g, s.k, s.n)
		want := New(s.g, s.m, s.n)
		for q := 0; q < s.g; q++ {
			aq := FromSlice(a.data[q*s.m*s.k:(q+1)*s.m*s.k], s.m, s.k)
			bq := FromSlice(b.data[q*s.k*s.n:(q+1)*s.k*s.n], s.k, s.n)
			Serial{}.MatMulInto(FromSlice(want.data[q*s.m*s.n:(q+1)*s.m*s.n], s.m, s.n), aq, bq)
		}
		for _, be := range backends {
			got := New(s.g, s.m, s.n)
			be.MatMulBatchInto(got, a, b)
			if diff := bitsDiff(got, want); diff != "" {
				t.Errorf("%s batched != loop-of-2D (g=%d m=%d k=%d n=%d): %s",
					be.Name(), s.g, s.m, s.k, s.n, diff)
			}
		}
	}
}

// TestGemmShouldPackBatch pins the dispatch heuristic's shape: g=1
// defers to the 2-D rule, larger batches relax the row floor to one
// register tile and judge work on the whole batch.
func TestGemmShouldPackBatch(t *testing.T) {
	cases := []struct {
		g, m, k, n int
		want       bool
	}{
		{1, 16, 16, 8, gemmShouldPack(16, 16, 8)},
		{16, 16, 8, 16, true},  // attention scores: 32k MACs across the batch
		{16, 4, 8, 8, false},   // batch work below threshold
		{64, 4, 16, 8, true},   // exactly at the relaxed floor, enough work
		{64, 3, 16, 8, false},  // below the row floor
		{64, 4, 16, 7, false},  // below the panel width
		{2, 128, 64, 64, true}, // big instances stay packed
	}
	for _, c := range cases {
		if got := gemmShouldPackBatch(c.g, c.m, c.k, c.n); got != c.want {
			t.Errorf("gemmShouldPackBatch(%d,%d,%d,%d) = %v, want %v", c.g, c.m, c.k, c.n, got, c.want)
		}
	}
}
