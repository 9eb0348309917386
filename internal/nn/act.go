package nn

import (
	"fmt"
	"math"

	"pipebd/internal/tensor"
)

// ReLU is max(0, x). Cap < 0 disables the upper clamp; Cap = 6 yields the
// ReLU6 used throughout MobileNet-family models.
//
// Elementwise, the output is 0 where v <= 0, Cap where a positive Cap is
// set and v >= Cap, and v otherwise — so a NaN passes through to the
// output — and the gradient passes exactly where 0 < v (< Cap), so a NaN
// input blocks it.
type ReLU struct {
	Cap float32 // upper clamp; <= 0 means unbounded

	stepMem
	mask []bool // true where the gradient passes through; nil when no training forward is cached
	buf  []bool // backing store of mask, reused from step to step
}

// NewReLU returns an unbounded rectifier.
func NewReLU() *ReLU { return &ReLU{Cap: -1} }

// Forward clamps the input elementwise.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := r.ar.Get(x.Shape()...)
	xd, od := x.Data(), out.Data()
	od = od[:len(xd)]
	// An eval-mode forward invalidates any cached mask: a Backward after
	// it would otherwise gate with state from a stale (possibly
	// differently-shaped) batch.
	r.mask = nil
	if train {
		r.buf = reuse(r.buf, len(xd))
		r.mask = r.buf
		r.cached()
	}
	// The loop is branch-free in the data (activation signs are a coin
	// flip, so a branch per element mispredicts half the time): the
	// comparisons select between integer bit patterns, which compile to
	// conditional moves; only the loop-invariant tests branch.
	mask, hi, hiBits := r.mask, r.Cap, math.Float32bits(r.Cap)
	for i, v := range xd {
		b := math.Float32bits(v)
		if v <= 0 {
			b = 0
		}
		pass := v > 0
		if hi > 0 {
			if v >= hi {
				b = hiBits
			}
			pass = pass && v < hi
		}
		od[i] = math.Float32frombits(b)
		if train {
			mask[i] = pass
		}
	}
	return out
}

// Backward gates the gradient by the forward-pass mask.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.mask == nil {
		panic("nn: ReLU.Backward called before Forward(train=true)")
	}
	r.checkCache("ReLU")
	gd := grad.Data()
	if len(r.mask) != len(gd) {
		panic(fmt.Sprintf("nn: ReLU.Backward grad has %d elements but cached mask has %d (stale forward?)", len(gd), len(r.mask)))
	}
	out := r.ar.Get(grad.Shape()...)
	od := out.Data()[:len(gd)]
	for i, pass := range r.mask {
		b := math.Float32bits(gd[i])
		if !pass {
			b = 0
		}
		od[i] = math.Float32frombits(b)
	}
	return out
}

// Params returns nil; ReLU has no trainable parameters.
func (r *ReLU) Params() []*Param { return nil }

var _ Layer = (*ReLU)(nil)
