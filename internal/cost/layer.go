// Package cost provides the analytic cost model underlying the performance
// simulator: per-layer multiply-accumulate counts, parameter counts,
// activation sizes, device execution times, and device memory estimates,
// all derived from exact layer shapes.
//
// Conventions: MACs counts only multiply-accumulate operations of
// convolution and linear layers (the quantity reported as "FLOPs" for
// MobileNet-family models in the literature and in the paper's Table II);
// FwdFLOPs counts 2·MACs plus the elementwise work of normalization,
// activation, and pooling layers, and is what the timing model consumes.
//
// The package prices one block on one GPU at one batch and knows nothing
// of stages, shares or plans. Its block times and memories have one
// caller outside the package, sched.Price and sched.Memory, which the
// simulator plays and the planners search; a cost term the model is
// missing is added here and reaches both through that one caller.
package cost

import "fmt"

// Kind enumerates the layer types the cost model understands.
type Kind int

// Layer kinds.
const (
	Conv       Kind = iota // standard 2-D convolution
	DWConv                 // depthwise 2-D convolution
	Linear                 // fully connected
	BatchNorm              // 2-D batch normalization
	Act                    // elementwise activation
	Pool                   // spatial max/avg pooling with square kernel
	GlobalPool             // global average pooling to 1x1
	Add                    // elementwise residual addition
	Flatten                // reshape only
	Embed                  // token + positional embedding lookup
	Attn                   // multi-head self-attention (QKV + output projections)
	LayerNorm              // per-position layer normalization
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Conv:
		return "conv"
	case DWConv:
		return "dwconv"
	case Linear:
		return "linear"
	case BatchNorm:
		return "bn"
	case Act:
		return "act"
	case Pool:
		return "pool"
	case GlobalPool:
		return "gap"
	case Add:
		return "add"
	case Flatten:
		return "flatten"
	case Embed:
		return "embed"
	case Attn:
		return "attn"
	case LayerNorm:
		return "ln"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Layer describes one layer's geometry for cost purposes.
//
// For spatial layers, InH/InW are the input spatial dimensions and the
// output dimensions follow from Kernel/Stride/Pad. Linear layers use
// InC/OutC and apply per spatial position (conv models set InH=InW=1;
// the transformer MLP applies the same weights at every sequence
// position).
//
// Transformer layers map sequence geometry onto the same fields:
// channels are the hidden width (InC=OutC=Dim), InH is the sequence
// length, and InW is 1. Embed consumes [batch, L] token ids (InC=1,
// InH=L) and reuses Kernel as the vocabulary size; Attn reuses Kernel as
// the head count. ComputeScale scales compute
// and invocation
// cost (used for NAS supernets where each step samples one of several
// candidate operations); StoreScale scales stored-activation memory the
// same way. Both default to 1 via NewLayer-style construction in the
// model package.
type Layer struct {
	Name                string
	Kind                Kind
	InC, OutC           int
	InH, InW            int
	Kernel, Stride, Pad int
	Bias                bool

	ComputeScale float64
	StoreScale   float64

	// BranchStart marks a layer whose input is not the previous layer's
	// output but an earlier activation (the head of a parallel candidate
	// branch in a NAS supernet). Shape-continuity validation restarts at
	// such layers.
	BranchStart bool
}

// OutH returns the output height.
func (l Layer) OutH() int { return l.outDim(l.InH) }

// OutW returns the output width.
func (l Layer) OutW() int { return l.outDim(l.InW) }

func (l Layer) outDim(in int) int {
	switch l.Kind {
	case Conv, DWConv:
		return (in+2*l.Pad-l.Kernel)/l.Stride + 1
	case Pool:
		return in / l.Kernel
	case GlobalPool:
		return 1
	case Flatten:
		return 1
	default:
		// BatchNorm, Act, Add, Embed, Attn, LayerNorm preserve shape, as
		// does Linear (it applies per spatial/sequence position; conv
		// models use it at InH=InW=1 where this matches the old rank
		// collapse).
		return in
	}
}

// computeScale returns ComputeScale defaulting to 1.
func (l Layer) computeScale() float64 {
	if l.ComputeScale == 0 {
		return 1
	}
	return l.ComputeScale
}

// storeScale returns StoreScale defaulting to 1.
func (l Layer) storeScale() float64 {
	if l.StoreScale == 0 {
		return 1
	}
	return l.StoreScale
}

// MACs returns the multiply-accumulate count for one sample, counting only
// convolution and linear layers (literature convention). The ComputeScale
// is intentionally not applied: MACs describes the architecture, not the
// training schedule.
func (l Layer) MACs() float64 {
	spatial := float64(l.OutH() * l.OutW())
	switch l.Kind {
	case Conv:
		return float64(l.Kernel*l.Kernel*l.InC*l.OutC) * spatial
	case DWConv:
		return float64(l.Kernel*l.Kernel*l.InC) * spatial
	case Linear:
		// Applied once per spatial/sequence position (spatial is 1 for
		// the conv models' classifier heads).
		return float64(l.InC*l.OutC) * spatial
	case Attn:
		// Q/K/V/output projections (4·D²·L) plus score and context
		// batched GEMMs (2·L²·D), per sample.
		d, seq := float64(l.InC), float64(l.InH)
		return 4*d*d*seq + 2*seq*seq*d
	default:
		return 0
	}
}

// FwdFLOPs returns the forward floating-point operations for a batch,
// scaled by ComputeScale. Conv/linear count 2·MACs; cheap layers count
// their elementwise work so launch-bound regimes stay visible.
func (l Layer) FwdFLOPs(batch int) float64 {
	b := float64(batch)
	outElems := b * float64(l.OutC) * float64(l.OutH()*l.OutW())
	var f float64
	switch l.Kind {
	case Conv, DWConv, Linear:
		f = 2 * l.MACs() * b
		if l.Bias {
			f += outElems
		}
	case Attn:
		// Projections and batched GEMMs, plus the softmax over the
		// [heads, L, L] score tensor.
		f = 2*l.MACs()*b + 5*b*float64(l.Kernel)*float64(l.InH*l.InH)
	case Embed:
		// Token gather + positional add per output element.
		f = outElems
	case LayerNorm:
		// Mean, variance, normalize, affine per element.
		f = 6 * outElems
	case BatchNorm:
		f = 4 * outElems // normalize + affine
	case Act:
		f = outElems
	case Pool:
		f = float64(l.Kernel*l.Kernel) * outElems
	case GlobalPool:
		f = b * float64(l.InC) * float64(l.InH*l.InW)
	case Add:
		f = outElems
	case Flatten:
		f = 0
	}
	return f * l.computeScale()
}

// ParamCount returns the number of trainable parameters.
func (l Layer) ParamCount() int64 {
	var p int64
	switch l.Kind {
	case Conv:
		p = int64(l.Kernel*l.Kernel) * int64(l.InC) * int64(l.OutC)
		if l.Bias {
			p += int64(l.OutC)
		}
	case DWConv:
		p = int64(l.Kernel*l.Kernel) * int64(l.InC)
		if l.Bias {
			p += int64(l.InC)
		}
	case Linear:
		p = int64(l.InC)*int64(l.OutC) + int64(l.OutC)
	case BatchNorm:
		p = 2 * int64(l.OutC)
	case Embed:
		// Token table [Vocab, Dim] plus positional table [L, Dim];
		// Kernel carries the vocabulary size.
		p = int64(l.Kernel)*int64(l.OutC) + int64(l.InH)*int64(l.OutC)
	case Attn:
		// Q/K/V/output projections, each [Dim, Dim] with bias.
		p = 4 * (int64(l.InC)*int64(l.OutC) + int64(l.OutC))
	case LayerNorm:
		p = 2 * int64(l.OutC) // gain and bias
	}
	return p
}

// InBytes returns the float32 input activation size for a batch.
func (l Layer) InBytes(batch int) int64 {
	return 4 * int64(batch) * int64(l.InC) * int64(l.InH) * int64(l.InW)
}

// OutBytes returns the float32 output activation size for a batch.
func (l Layer) OutBytes(batch int) int64 {
	if l.Kind == Flatten {
		return l.InBytes(batch) // reshape preserves elements
	}
	return 4 * int64(batch) * int64(l.OutC) * int64(l.OutH()) * int64(l.OutW())
}

// OutElems returns the number of output elements a kernel produces for a
// batch — the parallelism available to fill the device (occupancy model).
func (l Layer) OutElems(batch int) float64 {
	return float64(batch) * float64(l.OutC) * float64(l.OutH()*l.OutW())
}

// StoredBytes returns the activation bytes retained for the backward pass,
// honouring StoreScale.
func (l Layer) StoredBytes(batch int) int64 {
	return int64(float64(l.OutBytes(batch)) * l.storeScale())
}

// OutC_ returns the channel count seen by the next layer (helper for
// builders; Flatten folds spatial dims into channels).
func (l Layer) NextC() int {
	if l.Kind == Flatten {
		return l.InC * l.InH * l.InW
	}
	return l.OutC
}
