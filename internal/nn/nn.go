// Package nn implements the small neural-network runtime used by the
// numeric Pipe-BD engine: layers with explicit forward/backward passes,
// trainable parameters, losses, and an SGD optimizer.
//
// The design is deliberately tape-free: every Layer caches what it needs
// during Forward and consumes that cache in Backward. This matches the
// strictly layer-sequential structure of blockwise distillation (each
// student block is a chain owned by exactly one device) and keeps the
// backward pass deterministic, which the bit-equivalence experiments rely
// on. A Layer must not be shared between goroutines during training.
//
// Training state. NewParam makes a parameter's value only, so a frozen
// teacher carries no gradient or momentum. Before a trained block's first
// Backward, Pack moves its values, gradients and momentum into three
// slabs, one buffer each; SGD keeps nothing of its own and steps them.
//
// Lifetime. Every tensor a layer or loss allocates (outputs, gradients,
// backward caches) comes from the arena attached with ApplyArena. With
// none attached — the default — that is plain allocation and a returned
// tensor lives until garbage-collected. Under an attached arena it is
// valid until the arena's owner next calls Reset — the engine's step
// loops do before every block's distillation step; whoever needs it
// longer copies it, and a Backward whose training forward ran before that
// Reset panics. The memory itself stays with the arena for as long as the
// arena lives; the engine's live as long as the process (see
// tensor.ArenaCache).
package nn

import (
	"fmt"
	"slices"

	"pipebd/internal/tensor"
)

// Param is a trainable tensor. Pack makes Value, Grad and Velocity views
// into its block's slabs; a parameter never packed (a frozen teacher's)
// has a value only.
type Param struct {
	Name                  string
	Value, Grad, Velocity *tensor.Tensor
}

// NewParam wraps value as a parameter, without gradient or momentum.
func NewParam(name string, value *tensor.Tensor) *Param { return &Param{Name: name, Value: value} }

// Slabs is a trained block's state: its parameters' values, gradients and
// momentum, each one flat buffer holding the parameters' tensors end to
// end in Params() order.
type Slabs struct {
	Values, Grads, Velocity *tensor.Tensor
}

// Pack makes params' slabs, copies the values in, and points every Value,
// Grad and Velocity at its span. params must hold at least one element.
func Pack(params []*Param) Slabs {
	n := 0
	for _, p := range params {
		n += p.Value.Numel()
	}
	s := Slabs{tensor.New(n), tensor.New(n), tensor.New(n)}
	off := 0
	for _, p := range params {
		shape, end := p.Value.Shape(), off+p.Value.Numel()
		view := func(slab *tensor.Tensor) *tensor.Tensor {
			return tensor.FromSlice(slab.Data()[off:end:end], shape...)
		}
		value := view(s.Values)
		value.CopyFrom(p.Value)
		p.Value, p.Grad, p.Velocity = value, view(s.Grads), view(s.Velocity)
		off = end
	}
	return s
}

// Layer is a differentiable module. Backward must be called after Forward
// on the same input batch; it returns the gradient with respect to the
// layer's input and accumulates parameter gradients into Params().
type Layer interface {
	// Forward computes the layer output. train selects training-mode
	// behaviour (e.g. batch statistics in BatchNorm) and enables the
	// caching required by Backward.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the output gradient to the input gradient,
	// accumulating parameter gradients along the way.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// BackendUser is implemented by layers whose hot path runs on a
// tensor.Backend (Linear, Conv2d, MixedOp, Residual). A nil backend means
// "use the process default at call time".
type BackendUser interface {
	SetBackend(be tensor.Backend)
}

// ArenaUser is implemented by every layer that allocates tensors.
type ArenaUser interface {
	SetArena(ar *tensor.Arena)
}

// visit calls f on l and on every layer nested inside the package's
// containers. Layer types it does not know are leaves.
func visit(l Layer, f func(Layer)) {
	f(l)
	var nested []Layer
	switch v := l.(type) {
	case *Sequential:
		nested = v.Layers
	case *Residual:
		nested = []Layer{v.Body}
	case *MixedOp:
		nested = v.Branches
	case *FeedForward:
		nested = []Layer{v.W1, v.Act, v.W2}
	case *MultiHeadAttention:
		nested = []Layer{v.Wq, v.Wk, v.Wv, v.Wo}
	}
	for _, c := range nested {
		visit(c, f)
	}
}

// ApplyBackend routes l and every nested layer through be. Layers that do
// not use a backend are left untouched. Because all backends are
// bit-identical by contract, ApplyBackend never changes results — only
// how fast the host computes them.
func ApplyBackend(l Layer, be tensor.Backend) {
	visit(l, func(c Layer) {
		if u, ok := c.(BackendUser); ok {
			u.SetBackend(be)
		}
	})
}

// ApplyArena makes l and every nested layer draw its tensors from ar (see
// the package comment); nil detaches.
func ApplyArena(l Layer, ar *tensor.Arena) {
	visit(l, func(c Layer) {
		if u, ok := c.(ArenaUser); ok {
			u.SetArena(ar)
		}
	})
}

// stepMem is embedded by the layers that allocate: the arena their
// tensors come from and the arena generation of their training cache.
type stepMem struct {
	ar  *tensor.Arena
	gen uint64
}

// SetArena selects where the layer's tensors come from (nil: the heap).
func (m *stepMem) SetArena(ar *tensor.Arena) { m.ar = ar }

// cached records that a training forward's cache was just taken.
func (m *stepMem) cached() { m.gen = m.ar.Generation() }

// checkCache panics when the arena was reset (or swapped) since cached:
// the cache is recycled memory.
func (m *stepMem) checkCache(layer string) {
	if g := m.ar.Generation(); g != m.gen {
		panic(fmt.Sprintf("nn: %s.Backward in arena generation %d but its cache is from generation %d (stale forward?)", layer, g, m.gen))
	}
}

// viewAs returns t in the given shape, reusing *view while it is a view
// of t's storage in that shape: a weight keeps its view until nn.Pack
// moves it, an activation until its buffer or its batch changes.
func viewAs(view **tensor.Tensor, t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if v := *view; v == nil || &v.Data()[0] != &t.Data()[0] || v.Numel() != t.Numel() || !slices.Equal(v.Shape(), shape) {
		*view = t.Reshape(slices.Clone(shape)...)
	}
	return *view
}

// reuse returns buf with length n, reallocating only when it is too
// small; the layers' non-tensor caches live from step to step through it.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// backendOr resolves a layer's configured backend, falling back to the
// process default.
func backendOr(be tensor.Backend) tensor.Backend {
	if be != nil {
		return be
	}
	return tensor.Default()
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward applies every layer in order. What directly follows a Conv2d
// runs inside the conv's one pass over its GEMM's output (see
// Conv2d.forward) rather than as passes of its own: a BatchNorm2d in an
// evaluation forward (a training one needs the batch's statistics first),
// then a ReLU. The results are those of the layers' own forwards, bit for
// bit, and so are their caches.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for i := 0; i < len(s.Layers); i++ {
		c, ok := s.Layers[i].(*Conv2d)
		if !ok {
			x = s.Layers[i].Forward(x, train)
			continue
		}
		bn, _ := s.layer(i + 1).(*BatchNorm2d)
		if bn != nil && !train {
			i++
		} else {
			bn = nil
		}
		relu, _ := s.layer(i + 1).(*ReLU)
		if relu != nil {
			i++
		}
		x = c.forward(x, train, bn, relu)
	}
	return x
}

// layer returns layer i, or nil past the last.
func (s *Sequential) layer(i int) Layer {
	if i < len(s.Layers) {
		return s.Layers[i]
	}
	return nil
}

// Backward propagates gradients in reverse order.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

var _ Layer = (*Sequential)(nil)
