package nn

import (
	"fmt"

	"pipebd/internal/tensor"
)

// ReLU is max(0, x), elementwise: the output is 0 where v <= 0 (so −0
// becomes +0) and v otherwise (so a NaN passes through), and the gradient
// passes exactly where 0 < v, so a NaN input blocks it. Both run through
// the tensor package's channel-tail kernels: the forward as the ReLU step
// of tensor.ChannelTailInto, the backward as tensor.ReLUGateInto. Right
// after a Conv2d in a Sequential, the forward runs inside the conv's own
// pass over its output instead (see Sequential.Forward).
//
// A training forward keeps its output for the backward, which needs
// nothing else: the output is > 0 exactly where the input was.
type ReLU struct {
	stepMem
	out *tensor.Tensor // the last training forward's output; nil when no training forward is cached
}

// NewReLU returns a rectifier.
func NewReLU() *ReLU { return &ReLU{} }

// Forward clamps the input elementwise.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := r.ar.Get(x.Shape()...)
	tensor.ChannelTailInto(out.Data(), x.Data(), tensor.ChannelTail{ReLU: true})
	r.keep(out, train)
	return out
}

// keep records out, the rectified result of a forward, as the backward's
// cache after a training forward. An evaluation forward drops any cached
// output: a Backward after it would otherwise gate with a stale (possibly
// differently-shaped) batch.
func (r *ReLU) keep(out *tensor.Tensor, train bool) {
	r.out = nil
	if train {
		r.out = out
		r.cached()
	}
}

// Backward gates the gradient by the cached output.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.out == nil {
		panic("nn: ReLU.Backward called before Forward(train=true)")
	}
	r.checkCache("ReLU")
	gd, yd := grad.Data(), r.out.Data()
	if len(yd) != len(gd) {
		panic(fmt.Sprintf("nn: ReLU.Backward grad has %d elements but the cached output has %d (stale forward?)", len(gd), len(yd)))
	}
	out := r.ar.Get(grad.Shape()...)
	tensor.ReLUGateInto(out.Data(), gd, yd)
	return out
}

// Params returns nil; ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }

var _ Layer = (*ReLU)(nil)
