package nn

import (
	"fmt"
	"math"

	"pipebd/internal/tensor"
)

// MixedOp is a differentiable NAS cell: candidate operations combined by
// a softmax over trainable architecture parameters,
//
//	y = Σ_i softmax(α)_i · branch_i(x).
//
// This is the formulation the paper describes for its NAS workload
// ("multiple candidate operations in each layer are associated with a
// trainable architecture parameter, representing the probability of
// selecting the operation"). After search, the branch with the largest α
// is selected as the found architecture (Derive).
//
// All branches must preserve output shape. Alpha gradients flow through
// the softmax Jacobian; branch gradients are scaled by their weights.
type MixedOp struct {
	Branches []Layer
	Alpha    *Param // [len(Branches)]

	be tensor.Backend // nil: process default

	// Backward cache.
	stepMem
	weights    []float64        // softmax(alpha) of the last forward
	branchOuts []*tensor.Tensor // per-branch outputs of the last forward
}

// NewMixedOp builds a MixedOp over the given branches with uniform
// initial architecture parameters (α = 0).
func NewMixedOp(branches ...Layer) *MixedOp {
	if len(branches) < 2 {
		panic("nn: MixedOp needs at least two candidate branches")
	}
	return &MixedOp{
		Branches: branches,
		Alpha:    NewParam("mixedop.alpha", tensor.New(len(branches))),
	}
}

// softmaxAlpha returns softmax(α) in float64.
func (m *MixedOp) softmaxAlpha() []float64 {
	a := m.Alpha.Value.Data()
	maxv := a[0]
	for _, v := range a[1:] {
		if v > maxv {
			maxv = v
		}
	}
	w := make([]float64, len(a))
	var sum float64
	for i, v := range a {
		w[i] = math.Exp(float64(v - maxv))
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// SetBackend routes the combination arithmetic through be (nil restores
// the process default). Branch layers are configured separately; use
// ApplyBackend to set a whole tree at once.
func (m *MixedOp) SetBackend(be tensor.Backend) { m.be = be }

// Forward computes the weighted sum of all candidate outputs.
func (m *MixedOp) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	weights := m.softmaxAlpha()
	be := backendOr(m.be)
	var out *tensor.Tensor
	var outs []*tensor.Tensor
	for i, b := range m.Branches {
		y := b.Forward(x, train)
		if out == nil {
			out = m.ar.GetZeroed(y.Shape()...)
		} else if !y.SameShape(out) {
			panic(fmt.Sprintf("nn: MixedOp branch %d output %v mismatches %v", i, y.Shape(), out.Shape()))
		}
		be.Axpy(out, float32(weights[i]), y)
		if train {
			outs = append(outs, y)
		}
	}
	if train {
		m.weights, m.branchOuts = weights, outs
		m.cached()
	}
	return out
}

// Backward propagates through every branch (scaled by its weight) and
// accumulates the architecture-parameter gradient through the softmax
// Jacobian: dα_i = w_i (s_i − Σ_j w_j s_j) with s_i = <grad, branch_i(x)>.
func (m *MixedOp) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.branchOuts == nil {
		panic("nn: MixedOp.Backward called before Forward(train=true)")
	}
	m.checkCache("MixedOp")
	// Branch-output inner products with the incoming gradient.
	s := make([]float64, len(m.Branches))
	gd := grad.Data()
	for i, y := range m.branchOuts {
		yd := y.Data()
		var dot float64
		for k := range gd {
			dot += float64(gd[k]) * float64(yd[k])
		}
		s[i] = dot
	}
	var sBar float64
	for i, w := range m.weights {
		sBar += w * s[i]
	}
	ad := m.Alpha.Grad.Data()
	for i, w := range m.weights {
		ad[i] += float32(w * (s[i] - sBar))
	}

	// Input gradient: sum of branch backwards on weight-scaled grads.
	// Each branch gets its own scaled buffer: an identity-like branch
	// (e.g. an empty Sequential) returns its input from Backward, so a
	// shared buffer would alias dx and corrupt the accumulation.
	be := backendOr(m.be)
	var dx *tensor.Tensor
	for i, b := range m.Branches {
		scaled := m.ar.Get(grad.Shape()...)
		be.Scale(scaled, grad, float32(m.weights[i]))
		d := b.Backward(scaled)
		if dx == nil {
			dx = d
		} else {
			be.Axpy(dx, 1, d)
		}
	}
	return dx
}

// Params returns every branch's parameters plus α.
func (m *MixedOp) Params() []*Param {
	ps := []*Param{m.Alpha}
	for _, b := range m.Branches {
		ps = append(ps, b.Params()...)
	}
	return ps
}

// Weights returns the current candidate probabilities softmax(α).
func (m *MixedOp) Weights() []float64 { return m.softmaxAlpha() }

// Derive returns the index of the most probable candidate — the found
// architecture choice after search.
func (m *MixedOp) Derive() int {
	w := m.softmaxAlpha()
	best := 0
	for i, v := range w {
		if v > w[best] {
			best = i
		}
	}
	return best
}

var (
	_ Layer       = (*MixedOp)(nil)
	_ BackendUser = (*MixedOp)(nil)
)
