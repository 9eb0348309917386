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
//
// The forward GEMM writes its result in NCHW, image by image; one pass
// per output plane (tensor.ChannelTailInto), in place, adds the bias.
// Inside a Sequential that pass also runs the evaluation-mode
// BatchNorm2d and the ReLU that directly follow the conv (see
// Sequential.Forward). The backward moves the output gradient to the
// weight-gradient GEMM's [OutC, N·OH·OW] rows and sums each plane for
// the bias. A 1×1, stride-1, unpadded conv's input gradient is itself
// such a conv, of the gradient with the transposed weights, read and
// written in NCHW; any other conv folds Wᵀ·grad back with Col2ImInto.
type Conv2d struct {
	InC, OutC, Kernel, Stride, Pad int
	Weight                         *Param // [OutC, InC, K, K]
	Bias                           *Param // [OutC], nil when disabled

	be tensor.Backend // nil: process default
	stepMem
	// The weight's value and gradient as [OutC, InC·K·K] matrices: views,
	// remade only when the parameter's storage moves (nn.Pack).
	wm, gm *tensor.Tensor

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
	return c.forward(x, train, nil, nil)
}

// forward is Forward with the layers Sequential.Forward folds into it: an
// evaluation-mode bn and a relu, either nil when absent. The GEMM leaves
// each output channel's planes in their NCHW place; one
// tensor.ChannelTailInto pass over each, in place, adds the bias and
// runs bn's affine and relu's clamp, element by element the sequence the
// three layers' own forwards run.
func (c *Conv2d) forward(x *tensor.Tensor, train bool, bn *BatchNorm2d, relu *ReLU) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 || shape[1] != c.InC {
		panic(fmt.Sprintf("nn: Conv2d expects [N,%d,H,W], got %v", c.InC, shape))
	}
	n, h, w := shape[0], shape[2], shape[3]
	oh := tensor.ConvOutSize(h, c.Kernel, c.Stride, c.Pad)
	ow := tensor.ConvOutSize(w, c.Kernel, c.Stride, c.Pad)

	wm := c.weightMatrix(&c.wm, c.Weight.Value)
	out := c.ar.Get(n, c.OutC, oh, ow)
	if bn != nil {
		bn.checkInput(out.Shape())
	}
	backendOr(c.be).ConvForwardInto(out, wm, x, c.Kernel, c.Kernel, c.Stride, c.Pad)

	od, spatial := out.Data(), oh*ow
	for o := 0; o < c.OutC; o++ {
		t := tensor.ChannelTail{ReLU: relu != nil}
		if c.Bias != nil {
			t.AddBias, t.Bias = true, c.Bias.Value.Data()[o]
		}
		if bn != nil {
			bn.foldEval(&t, o)
		}
		for i := 0; i < n; i++ {
			plane := od[(i*c.OutC+o)*spatial:][:spatial]
			tensor.ChannelTailInto(plane, plane, t)
		}
	}
	if relu != nil {
		relu.keep(out, train)
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
	var dBias []float32
	if c.Bias != nil {
		dBias = c.Bias.Grad.Data()
	}
	flattenGrad(dFlat.Data(), dBias, grad)

	// dW = dFlat · im2col(x)ᵀ, gathered straight from the cached input
	// and folded back to [OutC, InC, K, K].
	dW := ar.Get(c.OutC, kk)
	be.ConvGradWeightInto(dW, dFlat, c.lastInput, c.Kernel, c.Kernel, c.Stride, c.Pad)
	be.Axpy(c.weightMatrix(&c.gm, c.Weight.Grad), 1, dW)

	dx := ar.Get(c.inN, c.InC, c.inH, c.inW)
	if c.Kernel == 1 && c.Stride == 1 && c.Pad == 0 {
		// dx = Wᵀ·grad image by image: a 1×1 conv of the NCHW gradient.
		// Each element is the OutC-term chain Col2Im would have copied.
		wt := ar.Get(c.InC, c.OutC)
		wd, td := c.Weight.Value.Data(), wt.Data()
		for o := 0; o < c.OutC; o++ {
			for ci := 0; ci < c.InC; ci++ {
				td[ci*c.OutC+o] = wd[o*c.InC+ci]
			}
		}
		be.ConvForwardInto(dx, wt, grad, 1, 1, 1, 0)
		return dx
	}
	// dx = Col2Im(Wᵀ · dFlat).
	dCols := ar.Get(kk, spatial)
	be.MatMulTAInto(dCols, c.weightMatrix(&c.wm, c.Weight.Value), dFlat)
	be.Col2ImInto(dx, dCols, c.Kernel, c.Kernel, c.Stride, c.Pad)
	return dx
}

// weightMatrix returns the weight's value or gradient t as an [OutC,
// InC·K·K] matrix through the kept view *view.
func (c *Conv2d) weightMatrix(view **tensor.Tensor, t *tensor.Tensor) *tensor.Tensor {
	return viewAs(view, t, c.OutC, t.Numel()/c.OutC)
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
		od, spatial := out.Data(), oh*ow
		for p := 0; p < n*d.C; p++ {
			plane := od[p*spatial:][:spatial]
			tensor.ChannelTailInto(plane, plane, tensor.ChannelTail{AddBias: true, Bias: d.Bias.Value.Data()[p%d.C]})
		}
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
		flattenGrad(nil, d.Bias.Grad.Data(), grad)
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

// flattenGrad is a conv's backward pass over its NCHW output gradient:
// each (n, c) plane goes to its place in the [C, N·OH·OW] rows of flat,
// and, where db is not nil, the plane's float32 sum is added to db[c]. A
// nil flat skips the relayout. Each sum is one chain from +0 over the
// plane's positions in ascending order, and db[c] takes the sums in
// ascending n; planeSums runs four channels' chains side by side, which
// leaves every chain's order as it is.
func flattenGrad(flat, db []float32, grad *tensor.Tensor) {
	s := grad.Shape()
	n, c, spatial := s[0], s[1], s[2]*s[3]
	gd := grad.Data()
	for ni := 0; ni < n; ni++ {
		img := gd[ni*c*spatial:][:c*spatial]
		if flat != nil {
			for ci := 0; ci < c; ci++ {
				copy(flat[(ci*n+ni)*spatial:][:spatial], img[ci*spatial:][:spatial])
			}
		}
		if db != nil {
			planeSums(db[:c], img, spatial)
		}
	}
}

// planeSums adds to db[c] the float32 sum of plane c of img, for every
// c: four independent chains at a time, so the adds overlap in the
// pipeline rather than wait on one another.
func planeSums(db, img []float32, spatial int) {
	c := 0
	for ; c+4 <= len(db); c += 4 {
		p0 := img[c*spatial:][:spatial]
		p1 := img[(c+1)*spatial:][:len(p0)]
		p2 := img[(c+2)*spatial:][:len(p0)]
		p3 := img[(c+3)*spatial:][:len(p0)]
		var s0, s1, s2, s3 float32
		for i, v := range p0 {
			s0 += v
			s1 += p1[i]
			s2 += p2[i]
			s3 += p3[i]
		}
		db[c] += s0
		db[c+1] += s1
		db[c+2] += s2
		db[c+3] += s3
	}
	for ; c < len(db); c++ {
		var sum float32
		for _, v := range img[c*spatial:][:spatial] {
			sum += v
		}
		db[c] += sum
	}
}

var (
	_ Layer       = (*Conv2d)(nil)
	_ Layer       = (*DWConv2d)(nil)
	_ BackendUser = (*Conv2d)(nil)
)
