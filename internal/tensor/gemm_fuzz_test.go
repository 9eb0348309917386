package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// gemmFuzzMaxMACs bounds one fuzz input's work, so the fuzzer spends its
// time on shapes rather than on a few huge products; it admits the
// largest GEMMs of `go run ./benchmark`: xfmr_inproc's 512×256×64 and
// conv_inproc's 3×3 convolutions of 16 images, 16×144×4096.
const gemmFuzzMaxMACs = 10 << 20

// FuzzGemm is the packed GEMM engine's generative oracle. An input names
// a layout, an instance count g, a shape m×k×n and a seed for the values
// and the conv geometry; every GEMM entry point of that layout — MatMul,
// MatMulTA, MatMulTB and their batched forms, or the fused conv forward
// and weight-gradient GEMMs — then runs serially and on a pool, on the
// microkernel of every tier the host has, and each result must equal the
// reference kernels bit for bit (bitsDiff: NaN payloads aside). Outputs
// start as a sentinel, so an element no path writes shows too. The
// committed seeds are adversarialShapes under every layout, row counts
// around the register tile's height, raggedShapes as MatMulTA (A read in
// place down its columns), and the GEMMs `go run ./benchmark`'s
// workloads run: xfmr_inproc's, and the conv forwards and weight
// gradients of the three conv workloads.
//
//	go test -run '^$' -fuzz '^FuzzGemm$' -fuzztime 20s ./internal/tensor/
func FuzzGemm(f *testing.F) {
	for layout := layoutAB; layout <= layoutConvT; layout++ {
		for i, s := range adversarialShapes {
			f.Add(uint8(layout), uint8(1), uint16(s.m), uint16(s.k), uint16(s.n), int64(i))
		}
		for _, m := range []int{7, 8, 9, 15, 17} {
			f.Add(uint8(layout), uint8(3), uint16(m), uint16(33), uint16(19), int64(m))
		}
	}
	for i, s := range raggedShapes {
		f.Add(uint8(layoutTA), uint8(1), uint16(s.m), uint16(s.k), uint16(s.n), int64(i))
	}
	// xfmr_inproc's own calls: the attention batches (16 samples × 4
	// heads, sequence length 32, head width 16) and the Linear layers'
	// GEMMs over 16 × 32 token rows, the last reducing over two kcBlocks.
	for _, s := range []struct {
		layout     gemmLayout
		g, m, k, n int
	}{
		{layoutTB, 64, 32, 16, 32}, {layoutAB, 64, 32, 32, 16}, {layoutTA, 64, 32, 32, 16},
		{layoutAB, 1, 512, 64, 64}, {layoutAB, 1, 512, 256, 64}, {layoutTA, 1, 64, 512, 64},
	} {
		f.Add(uint8(s.layout), uint8(s.g), uint16(s.m), uint16(s.k), uint16(s.n), int64(s.m))
	}
	// The conv workloads' calls (convCalls decodes k, n and the seed):
	// conv_inproc's 16 output channels over 8 and 16 images of 16×16 on
	// 16 or 3 input channels, 3×3 with pad 1 (seed 7) and 1×1 (seed 0);
	// the ring and hub workloads' 6 over 8×8 on 6 or 3; and a 5×5 with
	// pad 2 (seed 14). Each reads its taps in place forward and packs
	// them for dW.
	for _, layout := range []gemmLayout{layoutConv, layoutConvT} {
		for _, s := range []struct {
			g, m, k, n int
			seed       int64
		}{
			{8, 16, 15, 325, 7}, {16, 16, 15, 325, 7}, {16, 16, 2, 325, 7},
			{16, 16, 15, 375, 0}, {8, 16, 2, 375, 0},
			{8, 6, 5, 125, 7}, {16, 6, 5, 125, 7}, {8, 6, 2, 125, 7}, {16, 6, 5, 175, 0},
			{4, 8, 5, 275, 14},
		} {
			f.Add(uint8(layout), uint8(s.g), uint16(s.m), uint16(s.k), uint16(s.n), s.seed)
		}
	}
	pool := NewPool(3)
	f.Fuzz(func(t *testing.T, layout, g uint8, m, k, n uint16, seed int64) {
		checkGemm(t, pool, gemmLayout(layout%uint8(layoutConvT+1)), max(1, int(g)%65),
			max(1, int(m)%513), max(1, int(k)%601), max(1, int(n)%1101), seed)
	})
}

// gemmCall is one way of computing a fuzz input's product into out.
type gemmCall struct {
	name string
	run  func(pool *Pool, out *Tensor) // a nil pool runs serially
}

// checkGemm runs every call of one fuzz input against its reference.
func checkGemm(t *testing.T, pool *Pool, layout gemmLayout, g, m, k, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	which := rng.Intn(3)
	var want *Tensor
	var calls []gemmCall
	if layout >= layoutConv {
		want, calls = convCalls(rng, layout, which, g, m, k, n, seed)
	} else {
		want, calls = matMulCalls(rng, layout, which, g, m, k, n)
	}
	if want == nil {
		t.Skip("over the fuzz work bound")
	}
	tiers := hostTiers(t)
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, tk := range tiers {
		tier = tk
		for _, p := range []*Pool{nil, pool} {
			for _, c := range calls {
				out := New(want.shape...)
				for i := range out.data {
					out.data[i] = -7.25e9
				}
				c.run(p, out)
				if diff := bitsDiff(out, want); diff != "" {
					t.Fatalf("%s layout=%d g=%d m=%d k=%d n=%d seed=%d tier=%v pooled=%v: %s",
						c.name, layout, g, m, k, n, seed, tk, p != nil, diff)
				}
			}
		}
	}
}

// backendOf is the backend whose kernels run on pool: Serial when nil.
func backendOf(pool *Pool) Backend {
	if pool == nil {
		return Serial{}
	}
	return &Parallel{pool: pool}
}

// matMulCalls builds a batch of g m×k×n products stored as layout
// (layoutAB, TA or TB), its instance-by-instance reference, and the calls
// that must reproduce it: the batched entry point and the 2-D entry point
// on every instance.
func matMulCalls(rng *rand.Rand, layout gemmLayout, which, g, m, k, n int) (*Tensor, []gemmCall) {
	if g*m*k*n > gemmFuzzMaxMACs {
		return nil, nil
	}
	ar, ac, br, bc := m, k, k, n
	if layout == layoutTA {
		ar, ac = k, m
	}
	if layout == layoutTB {
		br, bc = n, k
	}
	a, b := New(g, ar, ac), New(g, br, bc)
	fillAdversarial(rng, a, which)
	fillAdversarial(rng, b, which+1)
	want := matMulRef(layout, g, m, k, n, a.data, b.data)
	batched := map[gemmLayout]func(Backend, *Tensor, *Tensor, *Tensor){
		layoutAB: Backend.MatMulBatchInto,
		layoutTA: Backend.MatMulTABatchInto,
		layoutTB: Backend.MatMulTBBatchInto,
	}[layout]
	single := map[gemmLayout]func(Backend, *Tensor, *Tensor, *Tensor){
		layoutAB: Backend.MatMulInto,
		layoutTA: Backend.MatMulTAInto,
		layoutTB: Backend.MatMulTBInto,
	}[layout]
	return want, []gemmCall{
		{"batched entry point", func(pool *Pool, out *Tensor) { batched(backendOf(pool), out, a, b) }},
		{"2-D entry point", func(pool *Pool, out *Tensor) {
			for q := 0; q < g; q++ {
				single(backendOf(pool),
					FromSlice(out.data[q*m*n:(q+1)*m*n], m, n),
					FromSlice(a.data[q*m*k:(q+1)*m*k], ar, ac),
					FromSlice(b.data[q*k*n:(q+1)*k*n], br, bc))
			}
		}},
	}
}

// matMulRef is the instance-by-instance reference for a batch of g m×k×n
// products stored as layout (layoutAB, TA or TB).
func matMulRef(layout gemmLayout, g, m, k, n int, a, b []float32) *Tensor {
	return batchRef(g, m, n, func(q int, od []float32) {
		aq, bq := a[q*m*k:], b[q*k*n:]
		switch layout {
		case layoutTA:
			matMulTARowsRef(od, aq, bq, k, m, n, 0, m)
		case layoutTB:
			matMulTBRowsRef(od, aq, bq, k, n, 0, m)
		default:
			matMulRowsRef(od, aq, bq, k, n, 0, m)
		}
	})
}

// convCalls reads a fuzz input as a convolution — g images, m output
// channels, 1–32 input channels from k, a height of kk to kk+23 from n%24
// and a width likewise from n/24, and a kernel kk, stride and padding
// from the seed's residues (1, 3 or 5 by seed%3, stride 1 or 2 by
// seed/3%2, pad seed/6 modulo kk/2+2) — and builds the layout's
// reference on the materialized column matrix and the fused entry point
// that must reproduce it. Stride-1 output widths reach 8, 16 and 24, so
// forwards read in place at every width they do in a workload.
func convCalls(rng *rand.Rand, layout gemmLayout, which, g, m, k, n int, seed int64) (*Tensor, []gemmCall) {
	u := uint64(seed)
	kk := []int{1, 3, 5}[u%3]
	stride, pad := 1+int(u/3%2), int(u/6%uint64(kk/2+2))
	c, h, w := 1+k%32, kk+n%24, kk+n/24%24
	oh, ow := ConvOutSize(h, kk, stride, pad), ConvOutSize(w, kk, stride, pad)
	K, S := c*kk*kk, g*oh*ow
	if m*K*S > gemmFuzzMaxMACs {
		return nil, nil
	}
	x := New(g, c, h, w)
	fillAdversarial(rng, x, which)
	cols := New(K, S)
	Serial{}.Im2ColInto(cols, x, kk, kk, stride, pad)
	if layout == layoutConv {
		wgt := New(m, K)
		fillAdversarial(rng, wgt, which+1)
		want := New(m, S)
		matMulRowsRef(want.data, wgt.data, cols.data, K, S, 0, m)
		return want, []gemmCall{{fmt.Sprintf("ConvForwardInto k%d s%d p%d", kk, stride, pad),
			func(pool *Pool, out *Tensor) { backendOf(pool).ConvForwardInto(out, wgt, x, kk, kk, stride, pad) }}}
	}
	grad := New(m, S)
	fillAdversarial(rng, grad, which+1)
	want := New(m, K)
	matMulTBRowsRef(want.data, grad.data, cols.data, S, K, 0, m)
	return want, []gemmCall{{fmt.Sprintf("ConvGradWeightInto k%d s%d p%d", kk, stride, pad),
		func(pool *Pool, out *Tensor) { backendOf(pool).ConvGradWeightInto(out, grad, x, kk, kk, stride, pad) }}}
}
