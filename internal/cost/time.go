package cost

import "pipebd/internal/hw"

// Memory-traffic estimates feeding the roofline model. The forward pass
// of a layer reads its input and parameters and writes its output; the
// backward pass of a parameterized layer reads the output gradient and
// saved activations and writes both the input gradient and the parameter
// gradient.
//
// Depthwise convolutions additionally carry a bandwidth-efficiency
// derating: their grouped, low-reuse access patterns achieve only a
// fraction of streaming bandwidth in FP32 library kernels. They dominate
// the large-feature-map early blocks of MobileNet-family models, which is
// what makes ImageNet's block 0 tower over the rest (the paper's Fig. 5).

// dwBandwidthEff is the fraction of streaming bandwidth depthwise
// convolution kernels achieve.
const dwBandwidthEff = 0.18

// effectiveTraffic inflates a layer's traffic by its kind's bandwidth
// (in)efficiency so the roofline model sees the achievable rate.
func effectiveTraffic(l Layer, traffic int64) int64 {
	if l.Kind == DWConv {
		return int64(float64(traffic) / dwBandwidthEff)
	}
	return traffic
}

// LayerFwdTraffic returns the forward memory traffic in bytes (unscaled).
func LayerFwdTraffic(l Layer, batch int) int64 {
	return l.InBytes(batch) + l.OutBytes(batch) + 4*l.ParamCount()
}

// LayerBwdTraffic returns the backward memory traffic in bytes (unscaled).
func LayerBwdTraffic(l Layer, batch int) int64 {
	switch l.Kind {
	case Conv, DWConv, Linear, BatchNorm:
		return 2*(l.InBytes(batch)+l.OutBytes(batch)) + 8*l.ParamCount()
	default:
		return l.InBytes(batch) + l.OutBytes(batch)
	}
}

// LayerFwdTime returns the time for one forward invocation of a layer at
// the given batch on the given GPU, honouring the layer's ComputeScale
// for compute, traffic, and launch overhead alike.
func LayerFwdTime(g hw.GPU, l Layer, batch int) float64 {
	scale := l.computeScale()
	if scale == 0 || l.Kind == Flatten {
		return 0
	}
	rawFlops := l.FwdFLOPs(batch) / scale
	traffic := effectiveTraffic(l, LayerFwdTraffic(l, batch))
	return scale * g.KernelTimeElems(rawFlops, traffic, l.OutElems(batch))
}

// LayerBwdTime returns the time for the backward pass of a layer. Param
// layers launch two kernels (input gradient, weight gradient), each of
// roughly forward compute cost and half the backward traffic; the rest
// launch one.
func LayerBwdTime(g hw.GPU, l Layer, batch int) float64 {
	scale := l.computeScale()
	if scale == 0 || l.Kind == Flatten {
		return 0
	}
	rawFlops := l.FwdFLOPs(batch) / scale
	traffic := effectiveTraffic(l, LayerBwdTraffic(l, batch))
	elems := l.OutElems(batch)
	switch l.Kind {
	case Conv, DWConv, Linear, BatchNorm:
		return scale * 2 * g.KernelTimeElems(rawFlops, traffic/2, elems)
	default:
		return scale * g.KernelTimeElems(rawFlops, traffic, elems)
	}
}

// BlockFwdTime returns the forward time of a block at the given batch.
func BlockFwdTime(g hw.GPU, b Block, batch int) float64 {
	var t float64
	for _, l := range b.Layers {
		t += LayerFwdTime(g, l, batch)
	}
	return t
}

// BlockBwdTime returns the backward time of a block at the given batch.
func BlockBwdTime(g hw.GPU, b Block, batch int) float64 {
	var t float64
	for _, l := range b.Layers {
		t += LayerBwdTime(g, l, batch)
	}
	return t
}

// UpdateTime returns the optimizer-update time for a block's parameters:
// a bandwidth-bound elementwise pass (SGD with momentum reads parameter,
// gradient, and momentum and writes parameter and momentum) plus one
// launch.
func UpdateTime(g hw.GPU, b Block) float64 {
	params := b.ParamCount()
	return g.KernelTime(4*float64(params), 5*4*params)
}
