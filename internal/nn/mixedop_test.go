package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

func newTestMixedOp(rng *rand.Rand) *MixedOp {
	return packed(NewMixedOp(
		NewConv2d(rng, 3, 3, 3, 1, 1, false),
		NewSequential(NewDWConv2d(rng, 3, 3, 1, 1, false), NewConv2d(rng, 3, 3, 1, 1, 0, false)),
	))
}

func TestMixedOpUniformInit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := newTestMixedOp(rng)
	w := m.Weights()
	if math.Abs(w[0]-0.5) > 1e-9 || math.Abs(w[1]-0.5) > 1e-9 {
		t.Fatalf("initial weights %v, want uniform", w)
	}
}

func TestMixedOpForwardIsWeightedSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := newTestMixedOp(rng)
	// Bias α toward branch 0 heavily: output approaches branch 0's.
	m.Alpha.Value.Data()[0] = 20
	x := tensor.Rand(rng, -1, 1, 2, 3, 5, 5)
	y := m.Forward(x, false)
	b0 := m.Branches[0].Forward(x, false)
	if !y.AllClose(b0, 1e-4, 1e-4) {
		t.Fatal("with α0 >> α1, MixedOp must reduce to branch 0")
	}
}

func TestMixedOpGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newTestMixedOp(rng)
	// Non-uniform α so softmax Jacobian terms are non-trivial.
	m.Alpha.Value.Data()[0] = 0.3
	m.Alpha.Value.Data()[1] = -0.2
	checkGradients(t, "MixedOp", m, tensor.Rand(rng, -1, 1, 2, 3, 4, 4))
}

func TestMixedOpAlphaGradSumsToZero(t *testing.T) {
	// The softmax Jacobian projects onto the simplex tangent space, so
	// dα must sum to zero.
	rng := rand.New(rand.NewSource(4))
	m := newTestMixedOp(rng)
	x := tensor.Rand(rng, -1, 1, 2, 3, 4, 4)
	out := m.Forward(x, true)
	ZeroGrads(m.Params())
	m.Backward(tensor.Rand(rng, -1, 1, out.Shape()...))
	var sum float64
	for _, g := range m.Alpha.Grad.Data() {
		sum += float64(g)
	}
	if math.Abs(sum) > 1e-5 {
		t.Fatalf("alpha gradient sums to %v, want 0", sum)
	}
}

func TestMixedOpParamsIncludeAlphaAndBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := newTestMixedOp(rng)
	ps := m.Params()
	// alpha + conv weight + (dw weight + pw weight)
	if len(ps) != 4 {
		t.Fatalf("got %d params, want 4", len(ps))
	}
	if ps[0] != m.Alpha {
		t.Fatal("alpha must be exposed as a trainable parameter")
	}
}

func TestMixedOpDerive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := newTestMixedOp(rng)
	m.Alpha.Value.Data()[1] = 3
	if m.Derive() != 1 {
		t.Fatal("Derive must pick the max-α branch")
	}
}

func TestMixedOpLearnsToPreferBetterBranch(t *testing.T) {
	// Target function equals branch 0 (a plain conv); training the α
	// parameters against it must shift probability onto branch 0.
	rng := rand.New(rand.NewSource(7))
	target := NewConv2d(rng, 3, 3, 3, 1, 1, false)
	m := packed(NewMixedOp(
		NewConv2d(rng, 3, 3, 3, 1, 1, false),
		NewConv2d(rng, 3, 3, 1, 1, 0, false), // 1x1 conv: weaker candidate
	))
	// Make branch 0 exactly the target (same weights), branch 1 cannot
	// represent it.
	m.Branches[0].(*Conv2d).Weight.Value.CopyFrom(target.Weight.Value)

	opt := NewSGD(0.5, 0, 0)
	x := tensor.Rand(rng, -1, 1, 4, 3, 6, 6)
	want := target.Forward(x, false)
	for step := 0; step < 60; step++ {
		ZeroGrads([]*Param{m.Alpha})
		y := m.Forward(x, true)
		_, grad := MSELoss(nil, y, want)
		m.Backward(grad)
		// Architecture-only update (weights frozen), DARTS-style round.
		opt.Step([]*Param{m.Alpha})
	}
	w := m.Weights()
	if w[0] < 0.9 {
		t.Fatalf("architecture search failed: weights %v, want branch 0 dominant", w)
	}
	if m.Derive() != 0 {
		t.Fatal("derived architecture should be branch 0")
	}
}

func TestMixedOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for single branch")
		}
	}()
	NewMixedOp(NewReLU())
}

func TestMixedOpBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := newTestMixedOp(rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Backward(tensor.New(1, 3, 4, 4))
}
