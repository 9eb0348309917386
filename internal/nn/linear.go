package nn

import (
	"fmt"
	"math/rand"

	"pipebd/internal/tensor"
)

// Linear is a fully connected layer: y = x·Wᵀ + b for x of shape [N, In].
// All three of its GEMMs (TB forward, TA for dW, plain for dx) route
// through the backend's register-blocked packed kernels; shapes too small
// to amortize packing fall back to the bit-identical reference kernels.
type Linear struct {
	In, Out int
	Weight  *Param // [Out, In]
	Bias    *Param // [Out], nil when disabled

	be tensor.Backend // nil: process default
	stepMem
	lastInput *tensor.Tensor
}

// NewLinear constructs a Linear layer with Xavier-uniform initialization.
func NewLinear(rng *rand.Rand, in, out int, bias bool) *Linear {
	l := &Linear{
		In: in, Out: out,
		Weight: NewParam("linear.weight", tensor.XavierUniform(rng, in, out, out, in)),
	}
	if bias {
		l.Bias = NewParam("linear.bias", tensor.New(out))
	}
	return l
}

// SetBackend routes the layer's GEMMs through be (nil restores the
// process default).
func (l *Linear) SetBackend(be tensor.Backend) { l.be = be }

// Forward computes y = x·Wᵀ + b.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 2 || shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear expects [N,%d], got %v", l.In, shape))
	}
	n := shape[0]
	out := l.ar.Get(n, l.Out)
	backendOr(l.be).MatMulTBInto(out, x, l.Weight.Value)
	if l.Bias != nil {
		od, bd := out.Data(), l.Bias.Value.Data()
		for i := 0; i < n; i++ {
			row := od[i*l.Out : (i+1)*l.Out]
			for j := range row {
				row[j] += bd[j]
			}
		}
	}
	if train {
		l.lastInput = x
		l.cached()
	}
	return out
}

// Backward propagates grad [N, Out] and accumulates dW, dB.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastInput == nil {
		panic("nn: Linear.Backward called before Forward(train=true)")
	}
	l.checkCache("Linear")
	be, n := backendOr(l.be), grad.Shape()[0]
	// dW = gradᵀ · x  -> [Out, In]
	dW := l.ar.Get(l.Out, l.In)
	be.MatMulTAInto(dW, grad, l.lastInput)
	be.Axpy(l.Weight.Grad, 1, dW)
	if l.Bias != nil {
		gd, bd := grad.Data(), l.Bias.Grad.Data()
		for i := 0; i < n; i++ {
			row := gd[i*l.Out : (i+1)*l.Out]
			for j, v := range row {
				bd[j] += v
			}
		}
	}
	// dx = grad · W -> [N, In]
	dx := l.ar.Get(n, l.In)
	be.MatMulInto(dx, grad, l.Weight.Value)
	return dx
}

// Params returns weight (and bias when present).
func (l *Linear) Params() []*Param {
	if l.Bias != nil {
		return []*Param{l.Weight, l.Bias}
	}
	return []*Param{l.Weight}
}

var (
	_ Layer       = (*Linear)(nil)
	_ BackendUser = (*Linear)(nil)
)
