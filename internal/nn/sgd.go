package nn

// SGD is stochastic gradient descent with classical momentum and L2 weight
// decay, matching the paper's training setup (SGD for both workloads).
// It holds no state: a parameter's momentum is its Velocity, in its
// block's slab (Pack), so one SGD may step any number of blocks. Updates
// are deterministic given identical gradients, a property the
// bit-equivalence experiments depend on.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32
}

// NewSGD constructs an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay}
}

// Step applies one update to every parameter:
//
//	g      = grad + wd*value
//	v      = momentum*v + g
//	value -= lr*v
//
// Without momentum v is g, and Velocity is left untouched.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		pd, gd := p.Value.Data(), p.Grad.Data()
		if s.Momentum != 0 {
			vd := p.Velocity.Data()
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
