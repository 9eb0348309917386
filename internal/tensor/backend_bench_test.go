package tensor_test

// Kernel benchmarks for what `go run ./benchmark` does not time in
// isolation: the GEMM-family sweep and the skinny batched attention
// GEMMs, each on the serial and the parallel backend. The parallel
// backend's pool is sized by GOMAXPROCS, so run them at the width to be
// measured (GOMAXPROCS=4 go test -run '^$' -bench . ./internal/tensor/);
// on a single-core host the two backends collapse to the same packed
// kernels.

import (
	"fmt"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

// benchBackends runs op as one sub-benchmark per backend. macs, when
// non-zero, is the multiply-accumulates of one call; throughput is
// reported by the GEMM convention of 2·macs·4 bytes per call.
func benchBackends(b *testing.B, shape string, macs int, op func(be tensor.Backend)) {
	for _, name := range []string{"serial", "parallel"} {
		be, _ := tensor.Lookup(name)
		b.Run(shape+"/"+name, func(b *testing.B) {
			b.SetBytes(int64(2 * macs * 4))
			for i := 0; i < b.N; i++ {
				op(be)
			}
		})
	}
}

// square returns two random n×n operands and an n×n destination.
func square(n int) (dst, x, y *tensor.Tensor) {
	rng := rand.New(rand.NewSource(1))
	return tensor.New(n, n), tensor.Rand(rng, -1, 1, n, n), tensor.Rand(rng, -1, 1, n, n)
}

func BenchmarkMatMul(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		dst, x, y := square(n)
		benchBackends(b, fmt.Sprintf("%dx%dx%d", n, n, n), n*n*n, func(be tensor.Backend) {
			be.MatMulInto(dst, x, y)
		})
	}
}

// BenchmarkMatMulTA and BenchmarkMatMulTB time the transposed variants
// that dominate the Linear and Conv2d backward passes.
func BenchmarkMatMulTA(b *testing.B) {
	dst, x, y := square(256)
	benchBackends(b, "256x256x256", 256*256*256, func(be tensor.Backend) {
		be.MatMulTAInto(dst, x, y)
	})
}

func BenchmarkMatMulTB(b *testing.B) {
	dst, x, y := square(256)
	benchBackends(b, "256x256x256", 256*256*256, func(be tensor.Backend) {
		be.MatMulTBInto(dst, x, y)
	})
}

func BenchmarkIm2Col(b *testing.B) {
	const n, c, hw = 8, 32, 28
	x := tensor.Rand(rand.New(rand.NewSource(3)), -1, 1, n, c, hw, hw)
	out := tensor.New(c*3*3, n*hw*hw)
	benchBackends(b, "8x32x28x28", 0, func(be tensor.Backend) {
		be.Im2ColInto(out, x, 3, 3, 1, 1)
	})
}

// The attention GEMMs are g = batch·heads instances of seq-len rows
// each, head width attnDh. Sequence length 32 is the shape `go run
// ./benchmark`'s xfmr_inproc runs (16 samples × 4 heads); 16 is the
// skinny case.
const attnG, attnDh = 64, 16

var attnShapes = []struct {
	l                   int
	scoresName, ctxName string
}{{16, "64x16x16", "64x16x16x16"}, {32, "64x32x32x16", "64x32x32x16"}}

func BenchmarkAttnScoresBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range attnShapes {
		q := tensor.Rand(rng, -1, 1, attnG, s.l, attnDh)
		k := tensor.Rand(rng, -1, 1, attnG, s.l, attnDh)
		scores := tensor.New(attnG, s.l, s.l)
		benchBackends(b, s.scoresName, attnG*s.l*s.l*attnDh, func(be tensor.Backend) {
			be.MatMulTBBatchInto(scores, q, k)
		})
	}
}

func BenchmarkAttnContextBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, s := range attnShapes {
		probs := tensor.Rand(rng, 0, 1, attnG, s.l, s.l)
		v := tensor.Rand(rng, -1, 1, attnG, s.l, attnDh)
		ctx := tensor.New(attnG, s.l, attnDh)
		benchBackends(b, s.ctxName, attnG*s.l*s.l*attnDh, func(be tensor.Backend) {
			be.MatMulBatchInto(ctx, probs, v)
		})
	}
}

// BenchmarkTanhInto and BenchmarkExpInto time the transcendental slice
// kernels on the operands of `go run ./benchmark`'s xfmr_inproc teacher:
// 16·32·256 GELU pre-activations spread like a layer-normed projection's
// (the scalar loop, which takes the tail and hosts without AVX, is
// cheaper below |x| = 1, so the spread matters there), and 16·4·32·32
// max-shifted attention scores. "tensor" is one call over all of them;
// "row=32" is one call per 32-float attention row, as the softmax called
// it before it made one call over the whole tensor, and
// "row=37" leaves a 5-float scalar tail on every call, so per-call and
// tail costs show beside the whole-tensor rate. The throughput column is
// 4 bytes per element.
func BenchmarkTanhInto(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	src := make([]float32, 16*32*256)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 0.55)
	}
	benchRows(b, tensor.TanhInto, src, len(src), 37)
}

func BenchmarkExpInto(b *testing.B) {
	src := tensor.Rand(rand.New(rand.NewSource(10)), -8, 0, 16*4*32*32).Data()
	benchRows(b, tensor.ExpInto, src, len(src), 32, 37)
}

// benchRows runs one sub-benchmark per row length: kernel over src in
// consecutive rows of that length, one call per row, as many whole rows
// as fit (a row of len(src) is the "tensor" case).
func benchRows(b *testing.B, kernel func(dst, src []float32), src []float32, rows ...int) {
	dst := make([]float32, len(src))
	for _, row := range rows {
		name := fmt.Sprintf("row=%d", row)
		if row == len(src) {
			name = "tensor"
		}
		calls := len(src) / row
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(4 * calls * row))
			for i := 0; i < b.N; i++ {
				for c := 0; c < calls*row; c += row {
					kernel(dst[c:c+row], src[c:c+row])
				}
			}
		})
	}
}

// BenchmarkConvGemmSkinny times the ring workloads' m = 6 conv GEMMs: 6
// output channels over 8 images of 8×8, forward, weight gradient (dW)
// and column gradient (dX) of the 3×3 convolutions on 3 and 6 input
// channels and of the 6-channel 1×1 pointwise convolution. Every tile of
// the forward and dW GEMMs is an edge tile (m = 6 is short of one 8-row
// tile); the 1×1 dW's 6 output columns are one edge panel.
func BenchmarkConvGemmSkinny(b *testing.B) {
	const n, oc, hw = 8, 6, 8
	rng := rand.New(rand.NewSource(12))
	for _, c := range []struct {
		name        string
		inC, kernel int
	}{{"conv3x3_c3", 3, 3}, {"conv3x3_c6", 6, 3}, {"conv1x1_c6", 6, 1}} {
		pad := c.kernel / 2
		taps, cols := c.inC*c.kernel*c.kernel, n*hw*hw
		x := tensor.Rand(rng, -1, 1, n, c.inC, hw, hw)
		w := tensor.Rand(rng, -1, 1, oc, taps)
		grad := tensor.Rand(rng, -1, 1, oc, cols)
		out, dW, dCols := tensor.New(oc, cols), tensor.New(oc, taps), tensor.New(taps, cols)
		macs := oc * taps * cols
		benchBackends(b, c.name+"/fwd", macs, func(be tensor.Backend) {
			be.ConvForwardInto(out, w, x, c.kernel, c.kernel, 1, pad)
		})
		benchBackends(b, c.name+"/dW", macs, func(be tensor.Backend) {
			be.ConvGradWeightInto(dW, grad, x, c.kernel, c.kernel, 1, pad)
		})
		benchBackends(b, c.name+"/dX", macs, func(be tensor.Backend) {
			be.MatMulTAInto(dCols, w, grad)
		})
	}
}

// BenchmarkConvGemmInproc times conv_inproc's m = 16 conv GEMMs: 16
// output channels over 8 and 16 images of 16×16 on 16 input channels,
// forward and weight gradient (dW) of the 3×3 (pad 1) and the 1×1
// convolution. Both forwards read their taps in place (stride 1, output
// width a multiple of 8), the 3×3 from a zero-bordered copy of the input
// and the 1×1 from the input itself; the dW GEMMs pack.
func BenchmarkConvGemmInproc(b *testing.B) {
	const oc, inC, hw = 16, 16, 16
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 16} {
		for _, kernel := range []int{3, 1} {
			pad := kernel / 2
			taps, cols := inC*kernel*kernel, n*hw*hw
			x := tensor.Rand(rng, -1, 1, n, inC, hw, hw)
			w := tensor.Rand(rng, -1, 1, oc, taps)
			grad := tensor.Rand(rng, -1, 1, oc, cols)
			out, dW := tensor.New(oc, cols), tensor.New(oc, taps)
			macs := oc * taps * cols
			name := fmt.Sprintf("conv%dx%d_n%d", kernel, kernel, n)
			benchBackends(b, name+"/fwd", macs, func(be tensor.Backend) {
				be.ConvForwardInto(out, w, x, kernel, kernel, 1, pad)
			})
			benchBackends(b, name+"/dW", macs, func(be tensor.Backend) {
				be.ConvGradWeightInto(dW, grad, x, kernel, kernel, 1, pad)
			})
		}
	}
}
