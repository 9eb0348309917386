package nn

import "pipebd/internal/tensor"

// SGD is stochastic gradient descent with classical momentum and L2 weight
// decay, matching the paper's training setup (SGD for both workloads).
// Updates are deterministic given identical gradients, a property the
// bit-equivalence experiments depend on.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32

	velocity map[*Param]*tensor.Tensor
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*Param]*tensor.Tensor)}
}

// Step applies one update to every parameter:
//
//	g      = grad + wd*value
//	v      = momentum*v + g
//	value -= lr*v
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		v := s.velocity[p]
		if v == nil && s.Momentum != 0 {
			v = tensor.New(p.Value.Shape()...)
			s.velocity[p] = v
		}
		pd, gd := p.Value.Data(), p.Grad.Data()
		if s.Momentum != 0 {
			vd := v.Data()
			for i := range pd {
				g := gd[i] + float32(s.WeightDecay*pd[i])
				vd[i] = float32(s.Momentum*vd[i]) + g
				pd[i] -= float32(s.LR * vd[i])
			}
		} else {
			for i := range pd {
				g := gd[i] + float32(s.WeightDecay*pd[i])
				pd[i] -= float32(s.LR * g)
			}
		}
	}
}

// Velocity returns p's momentum buffer, or nil if no update has touched
// it yet (equivalent to an all-zero buffer). Exposed so checkpoint /
// recovery code can capture the optimizer state that, together with the
// parameter values, makes an SGD trajectory replayable bit-for-bit.
func (s *SGD) Velocity(p *Param) *tensor.Tensor { return s.velocity[p] }

// SetVelocity installs v as p's momentum buffer (restoring a snapshot).
// The optimizer takes ownership of v and mutates it in place on later
// steps. A nil v clears the buffer back to the lazy-zero state.
func (s *SGD) SetVelocity(p *Param, v *tensor.Tensor) {
	if v == nil {
		delete(s.velocity, p)
		return
	}
	s.velocity[p] = v
}
