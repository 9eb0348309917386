package tensor

import (
	"math/rand"
	"testing"
)

// FuzzConv is the conv routes' generative oracle. An input draws N 1–16
// images of C 1–16 channels, H and W 1–20, OutC 1–20 output channels, a
// kernel K of 1 or 3, stride 1 or 2, pad 0 or 1, and a seed for the
// values, specials included. Three routes must then equal convGeom.at's
// textbook loops bit for bit (bitsDiff: NaN payloads aside), serially
// and on a pool, on every tier the host has:
//
//   - ConvForwardInto, whose output is NCHW: element (n, o, oi, oj) is
//     Σ_p w[o, p]·at(p, j) from +0, p ascending, j the column of
//     (n, oi, oj);
//   - ConvGradWeightInto: element (o, p) is Σ_j grad[o, j]·at(p, j), j
//     ascending;
//   - a 1×1, stride-1, unpadded conv's input gradient as Conv2d runs
//     it, ConvForwardInto of the NCHW gradient by Wᵀ, at the drawn N,
//     C, OutC, H and W: the textbook adjoint adds Σ_o w[o, c]·grad[o, j]
//     to the +0 of the input element at(c, j) reads, once.
//
// The committed seeds are conv_inproc's [16,16,16,16] and the cluster
// workloads' [16,6,8,8], each 3×3 pad 1 and 1×1, block 0's 3 input
// channels, and ragged output widths that pack (9 at stride 1, and
// stride 2); and 1×1 convs of C 3, 6 and 16 channels over 64, 256 and
// 49 positions, whose weight gradient packs x in 8×8 transposes: partial
// and whole panels, and a ragged position past the last whole group.
//
//	go test -run '^$' -fuzz '^FuzzConv$' -fuzztime 20s ./internal/tensor/
func FuzzConv(f *testing.F) {
	for _, s := range []struct{ n, c, outC, hw, k, stride, pad uint8 }{
		{16, 16, 16, 16, 3, 1, 1}, {16, 16, 16, 16, 1, 1, 0},
		{16, 6, 6, 8, 3, 1, 1}, {16, 6, 6, 8, 1, 1, 0}, {16, 3, 6, 8, 3, 1, 1},
		{2, 5, 7, 9, 3, 1, 1}, {3, 4, 9, 9, 1, 1, 0}, {2, 3, 5, 11, 3, 2, 1},
		{2, 3, 6, 8, 1, 1, 0}, {2, 3, 6, 16, 1, 1, 0}, {2, 3, 6, 7, 1, 1, 0},
		{2, 6, 6, 16, 1, 1, 0}, {2, 6, 6, 7, 1, 1, 0},
		{2, 16, 16, 8, 1, 1, 0}, {2, 16, 16, 7, 1, 1, 0},
	} {
		f.Add(s.n-1, s.c-1, s.outC-1, s.hw-1, s.hw-1, s.k/2, s.stride-1, s.pad, int64(s.hw)*int64(s.c))
	}
	pool := NewPool(3)
	f.Fuzz(func(t *testing.T, n, c, outC, h, w, k, stride, pad uint8, seed int64) {
		g := convGeom{n: 1 + int(n%16), c: 1 + int(c%16), h: 1 + int(h%20), w: 1 + int(w%20),
			kh: 1 + 2*int(k%2), stride: 1 + int(stride%2), pad: int(pad % 2)}
		g.kw = g.kh
		g.oh, g.ow = ConvOutSize(g.h, g.kh, g.stride, g.pad), ConvOutSize(g.w, g.kw, g.stride, g.pad)
		if g.oh <= 0 || g.ow <= 0 {
			t.Skip("empty output")
		}
		checkConv(t, pool, g, 1+int(outC%20), seed)
	})
}

// checkConv runs the three conv routes of one FuzzConv input against
// their textbook loops.
func checkConv(t *testing.T, pool *Pool, g convGeom, m int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	which := rng.Intn(3)
	K, S := g.colRows(), g.colCols()
	x, w, grad := New(g.n, g.c, g.h, g.w), New(m, K), New(m, S)
	fillAdversarial(rng, x, which)
	fillAdversarial(rng, w, which+1)
	fillAdversarial(rng, grad, which+2)

	fwd := New(g.n, m, g.oh, g.ow)
	for j := 0; j < S; j++ {
		ni, pos := j/(g.oh*g.ow), j%(g.oh*g.ow)
		for o := 0; o < m; o++ {
			var s float32
			for p := 0; p < K; p++ {
				s += float32(w.data[o*K+p] * g.at(x.data, p, j))
			}
			fwd.data[(ni*m+o)*g.oh*g.ow+pos] = s
		}
	}
	dW := New(m, K)
	for o := 0; o < m; o++ {
		for p := 0; p < K; p++ {
			var s float32
			for j := 0; j < S; j++ {
				s += float32(grad.data[o*S+j] * g.at(x.data, p, j))
			}
			dW.data[o*K+p] = s
		}
	}

	// The 1×1 input gradient at the drawn sizes: dy is the NCHW gradient
	// of a [N, m, H, W] output and wt the transposed weights, [C, m]. at
	// reads x element i as i+1 from an index tensor, which names the
	// element each term is added to.
	g1 := convGeom{n: g.n, c: g.c, h: g.h, w: g.w, oh: g.h, ow: g.w, kh: 1, kw: 1, stride: 1}
	dy, wt := New(g.n, m, g.h, g.w), New(g.c, m)
	fillAdversarial(rng, dy, which+2)
	fillAdversarial(rng, wt, which+1)
	dx, index := New(g.n, g.c, g.h, g.w), New(g.n, g.c, g.h, g.w)
	for i := range index.data {
		index.data[i] = float32(i + 1)
	}
	hw := g.h * g.w
	for ci := 0; ci < g.c; ci++ {
		for j := 0; j < g1.colCols(); j++ {
			var s float32
			for o := 0; o < m; o++ {
				s += float32(wt.data[ci*m+o] * dy.data[(j/hw*m+o)*hw+j%hw])
			}
			dx.data[int(g1.at(index.data, ci, j))-1] += s
		}
	}

	calls := []struct {
		name string
		want *Tensor
		run  func(be Backend, out *Tensor)
	}{
		{"ConvForwardInto", fwd, func(be Backend, out *Tensor) { be.ConvForwardInto(out, w, x, g.kh, g.kw, g.stride, g.pad) }},
		{"ConvGradWeightInto", dW, func(be Backend, out *Tensor) { be.ConvGradWeightInto(out, grad, x, g.kh, g.kw, g.stride, g.pad) }},
		{"1×1 input gradient", dx, func(be Backend, out *Tensor) { be.ConvForwardInto(out, wt, dy, 1, 1, 1, 0) }},
	}
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, tk := range hostTiers(t) {
		tier = tk
		for _, p := range []*Pool{nil, pool} {
			for _, c := range calls {
				out := New(c.want.shape...)
				for i := range out.data {
					out.data[i] = -7.25e9
				}
				c.run(backendOf(p), out)
				if diff := bitsDiff(out, c.want); diff != "" {
					t.Fatalf("%s: [%d,%d,%d,%d] k%d s%d p%d m=%d tier=%v pooled=%v: %s",
						c.name, g.n, g.c, g.h, g.w, g.kh, g.stride, g.pad, m, tk, p != nil, diff)
				}
			}
		}
	}
}
