package nn

import (
	"fmt"
	"math/rand"

	"pipebd/internal/tensor"
)

// Conv2d is a standard 2-D convolution with square kernels, symmetric
// zero-padding, and optional bias, implemented via the backend's fused
// im2col GEMMs, so no column matrix is ever materialized. A stride-1
// forward whose output width is a multiple of 8 (every conv of the
// benchmark workloads) reads its kernel taps in place — from the input,
// or from a copy of it inside a zero border when it pads; other
// forwards, and every weight gradient, pack the taps straight from the
// input into the GEMM's panel layout.
type Conv2d struct {
	InC, OutC, Kernel, Stride, Pad int
	Weight                         *Param // [OutC, InC, K, K]
	Bias                           *Param // [OutC], nil when disabled

	be tensor.Backend // nil: process default
	stepMem

	// Backward cache. The fused conv GEMMs (ConvForwardInto /
	// ConvGradWeightInto) gather kernel taps straight from the input, so
	// the layer no longer materializes an im2col column matrix at all —
	// backward only needs the input tensor itself, which is retained by
	// reference like Linear does.
	lastInput          *tensor.Tensor
	ready              bool // Forward(train=true) ran since last Backward reset
	inN, inH, inW      int
	lastOutH, lastOutW int
}

// NewConv2d constructs a Conv2d with Kaiming-normal weight initialization.
// bias selects whether an additive per-channel bias is trained.
func NewConv2d(rng *rand.Rand, inC, outC, kernel, stride, pad int, bias bool) *Conv2d {
	fanIn := inC * kernel * kernel
	c := &Conv2d{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		Weight: NewParam("conv.weight", tensor.KaimingNormal(rng, fanIn, outC, inC, kernel, kernel)),
	}
	if bias {
		c.Bias = NewParam("conv.bias", tensor.New(outC))
	}
	return c
}

// SetBackend routes the layer's im2col and GEMMs through be (nil
// restores the process default).
func (c *Conv2d) SetBackend(be tensor.Backend) { c.be = be }

// Forward computes the convolution of an NCHW input.
func (c *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 || shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2d expects [N,%d,H,W], got %v", c.InC, shape))
	}
	n, h, w := shape[0], shape[2], shape[3]
	oh := tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)

	be := backendOr(c.be)
	wm := c.Weight.Value.Reshape(c.OutC, c.InC*c.Kernel*c.Kernel)
	flat := c.ar.Get(c.OutC, n*oh*ow)
	be.ConvForwardInto(flat, wm, x, c.Kernel, c.Kernel, c.Stride, c.Pad) // [OutC, N*OH*OW]

	out := flatToNCHW(c.ar, flat, n, c.OutC, oh, ow)
	if c.Bias != nil {
		addChannelBias(out, c.Bias.Value)
	}
	if train {
		c.lastInput = x
		c.ready = true
		c.cached()
		c.inN, c.inH, c.inW = n, h, w
		c.lastOutH, c.lastOutW = oh, ow
	}
	// Evaluation forwards leave the backward cache untouched:
	// Forward(train) → Forward(eval) → Backward still differentiates the
	// training batch.
	return out
}

// Backward propagates grad (NCHW) and accumulates dWeight/dBias.
func (c *Conv2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !c.ready {
		panic("nn: Conv2d.Backward called before Forward(train=true)")
	}
	c.checkCache("Conv2d")
	checkConvGrad("Conv2d", grad, c.inN, c.OutC, c.lastOutH, c.lastOutW)
	be, ar := backendOr(c.be), c.ar
	kk := c.InC * c.Kernel * c.Kernel
	spatial := c.inN * c.lastOutH * c.lastOutW

	dFlat := ar.Get(c.OutC, spatial) // [OutC, N*OH*OW]
	nchwToFlatInto(dFlat, grad, c.OutC)

	// dW = dFlat · im2col(x)ᵀ, gathered straight from the cached input
	// and folded back to [OutC, InC, K, K].
	dW := ar.Get(c.OutC, kk)
	be.ConvGradWeightInto(dW, dFlat, c.lastInput, c.Kernel, c.Kernel, c.Stride, c.Pad)
	be.Axpy(c.Weight.Grad, 1, dW.Reshape(c.Weight.Value.Shape()...))

	if c.Bias != nil {
		accumulateChannelBiasGrad(c.Bias.Grad, grad)
	}

	// dx = Col2Im(Wᵀ · dFlat).
	wm := c.Weight.Value.Reshape(c.OutC, kk)
	dCols := ar.Get(kk, spatial)
	be.MatMulTAInto(dCols, wm, dFlat)
	dx := ar.Get(c.inN, c.InC, c.inH, c.inW)
	be.Col2ImInto(dx, dCols, c.Kernel, c.Kernel, c.Stride, c.Pad)
	return dx
}

// Params returns weight (and bias when present).
func (c *Conv2d) Params() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

// DWConv2d is a depthwise 2-D convolution (channel multiplier 1): each
// input channel is convolved with its own K×K filter.
type DWConv2d struct {
	C, Kernel, Stride, Pad int
	Weight                 *Param // [C, 1, K, K]
	Bias                   *Param // [C], nil when disabled

	stepMem
	lastInput *tensor.Tensor
}

// NewDWConv2d constructs a depthwise convolution with Kaiming init.
func NewDWConv2d(rng *rand.Rand, c, kernel, stride, pad int, bias bool) *DWConv2d {
	l := &DWConv2d{
		C: c, Kernel: kernel, Stride: stride, Pad: pad,
		Weight: NewParam("dwconv.weight", tensor.KaimingNormal(rng, kernel*kernel, c, 1, kernel, kernel)),
	}
	if bias {
		l.Bias = NewParam("dwconv.bias", tensor.New(c))
	}
	return l
}

// Forward computes the depthwise convolution of an NCHW input.
func (d *DWConv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 || shape[1] != d.C {
		panic(fmt.Sprintf("nn: DWConv2d expects [N,%d,H,W], got %v", d.C, shape))
	}
	n, h, w := shape[0], shape[2], shape[3]
	oh := tensor.ConvOutSize(h, d.Kernel, d.Stride, d.Pad)
	ow := tensor.ConvOutSize(w, d.Kernel, d.Stride, d.Pad)
	out := d.ar.Get(n, d.C, oh, ow)
	tensor.DWConvForwardInto(out, d.Weight.Value, x, d.Stride, d.Pad)
	if d.Bias != nil {
		addChannelBias(out, d.Bias.Value)
	}
	if train {
		d.lastInput = x
		d.cached()
	}
	return out
}

// Backward propagates grad and accumulates parameter gradients.
func (d *DWConv2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastInput == nil {
		panic("nn: DWConv2d.Backward called before Forward(train=true)")
	}
	d.checkCache("DWConv2d")
	x := d.lastInput
	n, h, w := x.Shape()[0], x.Shape()[2], x.Shape()[3]
	checkConvGrad("DWConv2d", grad, n, d.C,
		tensor.ConvOutSize(h, d.Kernel, d.Stride, d.Pad), tensor.ConvOutSize(w, d.Kernel, d.Stride, d.Pad))
	dx := d.ar.Get(n, d.C, h, w)
	tensor.DWConvBackwardInto(dx, d.Weight.Grad, grad, d.Weight.Value, x, d.Stride, d.Pad)
	if d.Bias != nil {
		accumulateChannelBiasGrad(d.Bias.Grad, grad)
	}
	return dx
}

// Params returns weight (and bias when present).
func (d *DWConv2d) Params() []*Param {
	if d.Bias != nil {
		return []*Param{d.Weight, d.Bias}
	}
	return []*Param{d.Weight}
}

// checkConvGrad panics unless grad is the [n,c,oh,ow] gradient of the
// output the cached training forward produced. A mismatch would otherwise
// mis-index the cached input silently or die on a bare index error.
func checkConvGrad(layer string, grad *tensor.Tensor, n, c, oh, ow int) {
	s := grad.Shape()
	if len(s) != 4 || s[0] != n || s[1] != c || s[2] != oh || s[3] != ow {
		panic(fmt.Sprintf("nn: %s.Backward grad shape %v but the cached forward produced [%d %d %d %d] (stale forward?)",
			layer, s, n, c, oh, ow))
	}
}

// flatToNCHW rearranges [C, N*OH*OW] (im2col result layout) to NCHW.
func flatToNCHW(ar *tensor.Arena, flat *tensor.Tensor, n, c, oh, ow int) *tensor.Tensor {
	out := ar.Get(n, c, oh, ow)
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

var (
	_ Layer       = (*Conv2d)(nil)
	_ Layer       = (*DWConv2d)(nil)
	_ BackendUser = (*Conv2d)(nil)
)
