package nn

import (
	"fmt"
	"math"

	"pipebd/internal/tensor"
)

// BatchNorm2d normalizes each channel over the (N, H, W) axes with learned
// per-channel scale and shift, maintaining running statistics for
// evaluation mode. Evaluation mode is an elementwise float64 affine per
// channel, tensor.ChannelTailInto's BatchNorm step; right after a Conv2d
// in a Sequential it runs inside the conv's pass over its output.
type BatchNorm2d struct {
	C        int
	Eps      float64
	Momentum float64 // running-stats update rate, PyTorch convention

	Gamma, Beta             *Param         // [C]
	RunningMean, RunningVar *tensor.Tensor // [C]

	// Backward cache.
	stepMem
	xhat   *tensor.Tensor
	invStd []float64
}

// NewBatchNorm2d constructs a BatchNorm2d with gamma=1, beta=0 and unit
// running variance, matching common framework defaults.
func NewBatchNorm2d(c int) *BatchNorm2d {
	return &BatchNorm2d{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma:       NewParam("bn.gamma", tensor.Ones(c)),
		Beta:        NewParam("bn.beta", tensor.New(c)),
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
	}
}

// Forward normalizes x. In training mode it uses batch statistics and
// updates running statistics; in evaluation mode it uses the running ones.
func (b *BatchNorm2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	b.checkInput(shape)
	n, spatial := shape[0], shape[2]*shape[3]
	out := b.ar.Get(shape...)
	xd, od := x.Data(), out.Data()
	if !train {
		for ci := 0; ci < b.C; ci++ {
			var t tensor.ChannelTail
			b.foldEval(&t, ci)
			for ni := 0; ni < n; ni++ {
				base := (ni*b.C + ci) * spatial
				tensor.ChannelTailInto(od[base:base+spatial], xd[base:base+spatial], t)
			}
		}
		return out
	}

	count := float64(n * spatial)
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	xhat := b.ar.Get(shape...)
	invStds := reuse(b.invStd, b.C)
	for ci := 0; ci < b.C; ci++ {
		var sum float64
		for ni := 0; ni < n; ni++ {
			base := (ni*b.C + ci) * spatial
			for i := 0; i < spatial; i++ {
				sum += float64(xd[base+i])
			}
		}
		mean := sum / count
		var sq float64
		for ni := 0; ni < n; ni++ {
			base := (ni*b.C + ci) * spatial
			for i := 0; i < spatial; i++ {
				d := float64(xd[base+i]) - mean
				sq += float64(d * d)
			}
		}
		variance := sq / count
		rm, rv := b.RunningMean.Data(), b.RunningVar.Data()
		rm[ci] = float32(float64((1-b.Momentum)*float64(rm[ci])) + float64(b.Momentum*mean))
		rv[ci] = float32(float64((1-b.Momentum)*float64(rv[ci])) + float64(b.Momentum*variance))
		invStd := 1 / math.Sqrt(variance+b.Eps)
		invStds[ci] = invStd
		g, bt := float64(gd[ci]), float64(bd[ci])
		for ni := 0; ni < n; ni++ {
			base := (ni*b.C + ci) * spatial
			for i := 0; i < spatial; i++ {
				xh := (float64(xd[base+i]) - mean) * invStd
				xhat.Data()[base+i] = float32(xh)
				od[base+i] = float32(float64(g*xh) + bt)
			}
		}
	}
	b.xhat, b.invStd = xhat, invStds
	b.cached()
	return out
}

// checkInput panics unless shape is an NCHW batch of the layer's C
// channels.
func (b *BatchNorm2d) checkInput(shape []int) {
	if len(shape) != 4 || shape[1] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm2d expects [N,%d,H,W], got %v", b.C, shape))
	}
}

// foldEval sets t's BatchNorm step to channel ci's evaluation-mode
// affine, from the running statistics.
func (b *BatchNorm2d) foldEval(t *tensor.ChannelTail, ci int) {
	t.Norm = true
	t.Mean = float64(b.RunningMean.Data()[ci])
	t.InvStd = 1 / math.Sqrt(float64(b.RunningVar.Data()[ci])+b.Eps)
	t.Gamma, t.Beta = float64(b.Gamma.Value.Data()[ci]), float64(b.Beta.Value.Data()[ci])
}

// Backward implements the standard batch-norm gradient.
func (b *BatchNorm2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.xhat == nil {
		panic("nn: BatchNorm2d.Backward called before Forward(train=true)")
	}
	b.checkCache("BatchNorm2d")
	shape := grad.Shape()
	n, spatial := shape[0], shape[2]*shape[3]
	count := float64(n * spatial)
	out := b.ar.Get(shape...)
	gd := grad.Data()
	xh := b.xhat.Data()
	od := out.Data()
	gammaD := b.Gamma.Value.Data()
	dGamma, dBeta := b.Gamma.Grad.Data(), b.Beta.Grad.Data()

	for ci := 0; ci < b.C; ci++ {
		var sumDy, sumDyXhat float64
		for ni := 0; ni < n; ni++ {
			base := (ni*b.C + ci) * spatial
			for i := 0; i < spatial; i++ {
				dy := float64(gd[base+i])
				sumDy += dy
				sumDyXhat += float64(dy * float64(xh[base+i]))
			}
		}
		dGamma[ci] += float32(sumDyXhat)
		dBeta[ci] += float32(sumDy)
		g := float64(gammaD[ci]) * b.invStd[ci]
		for ni := 0; ni < n; ni++ {
			base := (ni*b.C + ci) * spatial
			for i := 0; i < spatial; i++ {
				dy := float64(gd[base+i])
				xhv := float64(xh[base+i])
				od[base+i] = float32(g * (dy - sumDy/count - xhv*sumDyXhat/count))
			}
		}
	}
	return out
}

// Params returns gamma and beta.
func (b *BatchNorm2d) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

var _ Layer = (*BatchNorm2d)(nil)
