package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"pipebd/internal/tensor"
)

// The unfused layer sequence the conv's channel tail replaced, kept as
// its oracle: the conv as a materialized column matrix times the weights
// in [C, N·OH·OW] rows, moved to NCHW (flatToNCHW) and given its bias
// (addChannelBias) in passes of their own, BatchNorm's evaluation loop, a
// ReLU that keeps a []bool mask, and the backward's relayout
// (nchwToFlatInto), one-chain-at-a-time bias sums
// (accumulateChannelBiasGrad) and input gradient as Col2Im of Wᵀ times
// the relayout, whatever the kernel.

// tensorTier is the tensor package's kernel tier (tensor.tier, a
// kernelTier: 0 generic, 1 AVX, 2 AVX-512), so these oracles can run the
// layers on every tier the host has: from generic up to the tier it
// starts at.
//
//go:linkname tensorTier pipebd/internal/tensor.tier
var tensorTier uint8

// flatToNCHW rearranges [C, N*OH*OW] (im2col result layout) to NCHW.
func flatToNCHW(flat *tensor.Tensor, n, c, oh, ow int) *tensor.Tensor {
	out := tensor.New(n, c, oh, ow)
	fd, od := flat.Data(), out.Data()
	spatial := oh * ow
	for ci := 0; ci < c; ci++ {
		rowBase := ci * n * spatial
		for ni := 0; ni < n; ni++ {
			copy(od[(ni*c+ci)*spatial:(ni*c+ci+1)*spatial], fd[rowBase+ni*spatial:rowBase+(ni+1)*spatial])
		}
	}
	return out
}

// nchwToFlatInto rearranges NCHW into a preallocated [C, N*OH*OW] tensor,
// overwriting every element.
func nchwToFlatInto(out, x *tensor.Tensor, c int) {
	n, oh, ow := x.Shape()[0], x.Shape()[2], x.Shape()[3]
	spatial := oh * ow
	xd, od := x.Data(), out.Data()
	for ci := 0; ci < c; ci++ {
		rowBase := ci * n * spatial
		for ni := 0; ni < n; ni++ {
			copy(od[rowBase+ni*spatial:rowBase+(ni+1)*spatial], xd[(ni*c+ci)*spatial:(ni*c+ci+1)*spatial])
		}
	}
}

func addChannelBias(x *tensor.Tensor, bias *tensor.Tensor) {
	n, c := x.Shape()[0], x.Shape()[1]
	spatial := x.Shape()[2] * x.Shape()[3]
	xd, bd := x.Data(), bias.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			b := bd[ci]
			base := (ni*c + ci) * spatial
			for i := 0; i < spatial; i++ {
				xd[base+i] += b
			}
		}
	}
}

func accumulateChannelBiasGrad(dst *tensor.Tensor, grad *tensor.Tensor) {
	n, c := grad.Shape()[0], grad.Shape()[1]
	spatial := grad.Shape()[2] * grad.Shape()[3]
	gd, dd := grad.Data(), dst.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * spatial
			var s float32
			for i := 0; i < spatial; i++ {
				s += gd[base+i]
			}
			dd[ci] += s
		}
	}
}

// unfusedConv is a Conv2d run as it was before the channel tail and the
// NCHW conv GEMMs: im2col and the GEMM, then the relayout and the bias as
// passes of their own. Its type is not *Conv2d, so a Sequential folds
// nothing into it.
type unfusedConv struct {
	*Conv2d
	x *tensor.Tensor
}

func (c *unfusedConv) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, h, w := x.Shape()[0], x.Shape()[2], x.Shape()[3]
	oh := tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)
	kk := c.InC * c.Kernel * c.Kernel
	be := backendOr(c.be)
	cols := tensor.New(kk, n*oh*ow)
	be.Im2ColInto(cols, x, c.Kernel, c.Kernel, c.Stride, c.Pad)
	flat := tensor.New(c.OutC, n*oh*ow)
	be.MatMulInto(flat, c.Weight.Value.Reshape(c.OutC, kk), cols)
	out := flatToNCHW(flat, n, c.OutC, oh, ow)
	if c.Bias != nil {
		addChannelBias(out, c.Bias.Value)
	}
	if train {
		c.x = x
	}
	return out
}

func (c *unfusedConv) Backward(grad *tensor.Tensor) *tensor.Tensor {
	be, x := backendOr(c.be), c.x
	kk := c.InC * c.Kernel * c.Kernel
	spatial := grad.Shape()[0] * grad.Shape()[2] * grad.Shape()[3]
	dFlat := tensor.New(c.OutC, spatial)
	nchwToFlatInto(dFlat, grad, c.OutC)
	dW := tensor.New(c.OutC, kk)
	be.ConvGradWeightInto(dW, dFlat, x, c.Kernel, c.Kernel, c.Stride, c.Pad)
	be.Axpy(c.Weight.Grad, 1, dW.Reshape(c.Weight.Value.Shape()...))
	if c.Bias != nil {
		accumulateChannelBiasGrad(c.Bias.Grad, grad)
	}
	dCols := tensor.New(kk, spatial)
	be.MatMulTAInto(dCols, c.Weight.Value.Reshape(c.OutC, kk), dFlat)
	dx := tensor.New(x.Shape()...)
	be.Col2ImInto(dx, dCols, c.Kernel, c.Kernel, c.Stride, c.Pad)
	return dx
}

// unfusedBN is a BatchNorm2d whose evaluation forward is the loop it had
// before the channel tail; training forwards and the backward are the
// layer's own.
type unfusedBN struct{ *BatchNorm2d }

func (b *unfusedBN) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		return b.BatchNorm2d.Forward(x, true)
	}
	shape := x.Shape()
	n, spatial := shape[0], shape[2]*shape[3]
	out := tensor.New(shape...)
	xd, od := x.Data(), out.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	for ci := 0; ci < b.C; ci++ {
		mean := float64(b.RunningMean.Data()[ci])
		variance := float64(b.RunningVar.Data()[ci])
		invStd := 1 / math.Sqrt(variance+b.Eps)
		g, bt := float64(gd[ci]), float64(bd[ci])
		for ni := 0; ni < n; ni++ {
			base := (ni*b.C + ci) * spatial
			for i := 0; i < spatial; i++ {
				xh := (float64(xd[base+i]) - mean) * invStd
				od[base+i] = float32(g*xh + bt)
			}
		}
	}
	return out
}

// maskReLU is the ReLU that kept a []bool mask of where the gradient
// passes.
type maskReLU struct{ mask []bool }

func (r *maskReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	r.mask = nil
	if train {
		r.mask = make([]bool, len(xd))
	}
	for i, v := range xd {
		b := math.Float32bits(v)
		if v <= 0 {
			b = 0
		}
		od[i] = math.Float32frombits(b)
		if train {
			r.mask[i] = v > 0
		}
	}
	return out
}

func (r *maskReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(grad.Shape()...)
	gd, od := grad.Data(), out.Data()
	for i, pass := range r.mask {
		b := math.Float32bits(gd[i])
		if !pass {
			b = 0
		}
		od[i] = math.Float32frombits(b)
	}
	return out
}

func (r *maskReLU) Params() []*Param { return nil }

// tailKit builds a block's layers, fused (the package's own) or as the
// unfused oracle, drawing initial values from one rng so both kits build
// bit-identical blocks from one seed. Every parameter and running
// statistic gets specials: one ±0, NaN or ±Inf per tensor at a seeded
// position, the rest ordinary.
type tailKit struct {
	oracle bool
	rng    *rand.Rand
}

var tailSpecials = []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc0beef),
	float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0xffc01234)}

// sprinkle writes one special into t at a position drawn from k's rng
// and returns t.
func (k tailKit) sprinkle(t *tensor.Tensor) *tensor.Tensor {
	d := t.Data()
	d[k.rng.Intn(len(d))] = tailSpecials[k.rng.Intn(len(tailSpecials))]
	return t
}

func (k tailKit) conv(inC, outC, kernel, pad int, bias bool) Layer {
	c := NewConv2d(k.rng, inC, outC, kernel, 1, pad, bias)
	k.sprinkle(c.Weight.Value)
	if bias {
		c.Bias.Value.CopyFrom(tensor.Rand(k.rng, -0.5, 0.5, outC))
		k.sprinkle(c.Bias.Value)
	}
	if k.oracle {
		return &unfusedConv{Conv2d: c}
	}
	return c
}

func (k tailKit) dwconv(c int) Layer {
	l := NewDWConv2d(k.rng, c, 3, 1, 1, false)
	k.sprinkle(l.Weight.Value)
	return l
}

func (k tailKit) bn(c int) Layer {
	b := NewBatchNorm2d(c)
	b.Gamma.Value.CopyFrom(tensor.Rand(k.rng, 0.5, 1.5, c))
	b.Beta.Value.CopyFrom(tensor.Rand(k.rng, -0.5, 0.5, c))
	b.RunningMean.CopyFrom(tensor.Rand(k.rng, -0.5, 0.5, c))
	b.RunningVar.CopyFrom(tensor.Rand(k.rng, 0.5, 2, c))
	for _, t := range []*tensor.Tensor{b.Gamma.Value, b.Beta.Value, b.RunningMean} {
		k.sprinkle(t)
	}
	b.RunningVar.Data()[k.rng.Intn(c)] = 0 // invStd = 1/√eps
	if k.oracle {
		return &unfusedBN{b}
	}
	return b
}

func (k tailKit) relu() Layer {
	if k.oracle {
		return &maskReLU{}
	}
	return NewReLU()
}

// tailBlocks are the census of conv tails: the tiny workbench's teacher
// (conv3×3 → BatchNorm → ReLU) and student (depthwise → conv1×1 with bias
// → ReLU), and the supernet's student cell, whose ReLU follows a MixedOp
// and so runs on its own, and whose branch convs end in a bias alone.
var tailBlocks = []struct {
	name  string
	build func(k tailKit, inC, c int) Layer
}{
	{"teacher", func(k tailKit, inC, c int) Layer {
		return NewSequential(k.conv(inC, c, 3, 1, false), k.bn(c), k.relu())
	}},
	{"student", func(k tailKit, inC, c int) Layer {
		return NewSequential(k.dwconv(inC), k.conv(inC, c, 1, 0, true), k.relu())
	}},
	{"supernet", func(k tailKit, inC, c int) Layer {
		return NewSequential(NewMixedOp(
			k.conv(inC, c, 3, 1, true),
			NewSequential(k.dwconv(inC), k.conv(inC, c, 1, 0, true)),
			k.conv(inC, c, 1, 0, true),
		), k.relu())
	}},
}

// bitsDiff names the first element at which got and want differ in any
// bit, NaN payloads included, or returns "".
func bitsDiff(got, want *tensor.Tensor) string {
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		return fmt.Sprintf("length %d vs %d", len(gd), len(wd))
	}
	for i := range gd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			return fmt.Sprintf("element %d: got %v (%#08x), want %v (%#08x)",
				i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
	return ""
}

// specialInput is an NCHW batch of ordinary values with a few specials.
func specialInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.Rand(rng, -1, 1, shape...)
	d := x.Data()
	for _, v := range tailSpecials {
		d[rng.Intn(len(d))] = v
	}
	return x
}

// TestConvTailMatchesUnfusedBits runs every block of tailBlocks fused and
// as the unfused oracle, on every kernel tier the host has, at output
// planes of whole groups of eight floats (8×8, 16×16) and ragged ones (5×5,
// 7×9), through the teacher's warm-up (a training forward, then an
// evaluation one on its output) and a training step (a training forward
// and a backward), with specials in inputs, parameters, running
// statistics and gradients. Outputs, input gradients, every parameter
// gradient and the running statistics must match bit for bit, NaN
// payloads included.
func TestConvTailMatchesUnfusedBits(t *testing.T) {
	defer func(prev uint8) { tensorTier = prev }(tensorTier)
	host := tensorTier
	shapes := []struct{ n, inC, c, h, w int }{
		{2, 3, 5, 8, 8}, {1, 4, 16, 16, 16}, {2, 4, 3, 5, 5}, {3, 3, 4, 7, 9},
	}
	for tier := uint8(0); tier <= host; tier++ {
		tensorTier = tier
		for _, blk := range tailBlocks {
			for si, s := range shapes {
				label := fmt.Sprintf("%s %+v tier=%d", blk.name, s, tier)
				seed := int64(100*si + len(blk.name))
				fused := blk.build(tailKit{rng: rand.New(rand.NewSource(seed))}, s.inC, s.c)
				oracle := blk.build(tailKit{oracle: true, rng: rand.New(rand.NewSource(seed))}, s.inC, s.c)
				rng := rand.New(rand.NewSource(seed + 1))

				// Warm-up: a training forward, then an evaluation one.
				x := specialInput(rng, s.n, s.inC, s.h, s.w)
				got, want := fused.Forward(x, true), oracle.Forward(x, true)
				if diff := bitsDiff(got, want); diff != "" {
					t.Fatalf("%s: training forward: %s", label, diff)
				}
				got, want = fused.Forward(x, false), oracle.Forward(x, false)
				if diff := bitsDiff(got, want); diff != "" {
					t.Fatalf("%s: evaluation forward: %s", label, diff)
				}

				// A training step.
				x = specialInput(rng, s.n, s.inC, s.h, s.w)
				got, want = fused.Forward(x, true), oracle.Forward(x, true)
				if diff := bitsDiff(got, want); diff != "" {
					t.Fatalf("%s: step forward: %s", label, diff)
				}
				grad := specialInput(rng, got.Shape()...)
				if diff := bitsDiff(fused.Backward(grad), oracle.Backward(grad)); diff != "" {
					t.Fatalf("%s: dx: %s", label, diff)
				}
				fp, op := fused.Params(), oracle.Params()
				for i := range fp {
					if diff := bitsDiff(fp[i].Grad, op[i].Grad); diff != "" {
						t.Fatalf("%s: %s gradient: %s", label, fp[i].Name, diff)
					}
				}
				if blk.name == "teacher" {
					fb := fused.(*Sequential).Layers[1].(*BatchNorm2d)
					ob := oracle.(*Sequential).Layers[1].(*unfusedBN)
					if diff := bitsDiff(fb.RunningMean, ob.RunningMean); diff != "" {
						t.Fatalf("%s: running mean: %s", label, diff)
					}
					if diff := bitsDiff(fb.RunningVar, ob.RunningVar); diff != "" {
						t.Fatalf("%s: running variance: %s", label, diff)
					}
				}
			}
		}
	}
}
