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

	"pipebd/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zero gradient of matching shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

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
		p.ZeroGrad()
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

// Forward applies every layer in order.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
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
