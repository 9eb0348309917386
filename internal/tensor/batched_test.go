package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Adversarial batched shapes: skinny attention-style instances (m ≈
// sequence length, k ≈ head width), instances that fall below the call
// floor alone but clear it as a batch, degenerate seq-len-1 instances,
// primes, single-instance batches (which must dispatch exactly like the
// 2-D call), and batches straddling both floors of gemmShouldPack.
var adversarialBatchShapes = []struct{ g, m, k, n int }{
	{1, 1, 1, 1},
	{1, 13, 17, 19},  // g=1: must behave like the 2-D call
	{1, 64, 300, 65}, // g=1 on the packed path
	{2, 1, 3, 2},     // seq-len-1 instances
	{3, 1, 8, 1},
	{16, 16, 8, 16}, // per-head attention scores: skinny but many
	{16, 16, 16, 8}, // per-head attention context
	{8, 8, 8, 8},    // whole row tiles
	{8, 7, 8, 8},    // one row short of a tile: edge tiles only
	{5, 7, 11, 13},  // primes
	{4, 5, 300, 9},  // k spanning kcBlock boundaries
	{2, 31, 64, 33},
	{64, 2, 2, 2}, // many tiny instances: past the call floor, below the instance floor
	{4, 4, 4, 8},  // at both floors
	{3, 4, 4, 8},  // one instance short of the call floor
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

// TestGemmShouldPack pins the one dispatch rule's shape: a single output
// row never packs; anything else packs once the whole call reaches the
// per-call floor and each instance the per-instance one, whatever its
// row count or panel width.
func TestGemmShouldPack(t *testing.T) {
	cases := []struct {
		g, m, k, n int
		want       bool
	}{
		{1, 8, 8, 8, true},      // exactly the call floor
		{1, 8, 8, 7, false},     // one column short of it
		{1, 6, 27, 512, true},   // the ring's m = 6 GEMMs
		{1, 6, 512, 6, true},    // and a sub-panel width
		{1, 2, 16, 16, true},    // two rows are enough
		{1, 1, 512, 512, false}, // one row never is
		{64, 1, 16, 16, false},
		{16, 16, 8, 16, true}, // attention scores: judged on the batch
		{4, 4, 4, 8, true},    // each instance at the instance floor, the call at its own
		{3, 4, 4, 8, false},
		{64, 4, 4, 4, false}, // instances of half the instance floor
		{64, 2, 2, 2, false},
	}
	for _, c := range cases {
		if got := gemmShouldPack(c.g, c.m, c.k, c.n); got != c.want {
			t.Errorf("gemmShouldPack(%d,%d,%d,%d) = %v, want %v", c.g, c.m, c.k, c.n, got, c.want)
		}
	}
}
