package nn

import (
	"fmt"

	"pipebd/internal/tensor"
)

// Residual wraps a body layer with an identity skip connection:
// y = x + body(x). The body must preserve the input shape.
type Residual struct {
	Body Layer

	be tensor.Backend // nil: process default
	stepMem
}

// NewResidual wraps body with an identity skip connection.
func NewResidual(body Layer) *Residual { return &Residual{Body: body} }

// SetBackend routes the skip additions, not the body, through be (nil
// restores the process default).
func (r *Residual) SetBackend(be tensor.Backend) { r.be = be }

// add returns a + b on the layer's backend.
func (r *Residual) add(a, b *tensor.Tensor) *tensor.Tensor {
	out := r.ar.Get(a.Shape()...)
	backendOr(r.be).Add(out, a, b)
	return out
}

// Forward computes x + body(x).
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := r.Body.Forward(x, train)
	if !y.SameShape(x) {
		panic(fmt.Sprintf("nn: Residual body changed shape %v -> %v", x.Shape(), y.Shape()))
	}
	return r.add(x, y)
}

// Backward sums the skip gradient and the body gradient.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return r.add(grad, r.Body.Backward(grad))
}

// Params returns the body's parameters.
func (r *Residual) Params() []*Param { return r.Body.Params() }

var _ Layer = (*Residual)(nil)
var _ BackendUser = (*Residual)(nil)
