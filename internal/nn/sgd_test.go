package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

func TestSGDPlainStep(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{1, 2}, 2))
	p.Grad.CopyFrom(tensor.FromSlice([]float32{0.5, -0.5}, 2))
	NewSGD(0.1, 0, 0).Step([]*Param{p})
	want := tensor.FromSlice([]float32{0.95, 2.05}, 2)
	if !p.Value.AllClose(want, 1e-6, 1e-6) {
		t.Fatalf("SGD step = %v, want %v", p.Value, want)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{0}, 1))
	opt := NewSGD(1, 0.9, 0)
	// Constant gradient of 1: velocities 1, 1.9, 2.71...
	p.Grad.Fill(1)
	opt.Step([]*Param{p})
	if got := p.Value.Data()[0]; got != -1 {
		t.Fatalf("step1 = %v, want -1", got)
	}
	opt.Step([]*Param{p})
	if got := p.Value.Data()[0]; math.Abs(float64(got)+2.9) > 1e-6 {
		t.Fatalf("step2 = %v, want -2.9", got)
	}
}

func TestSGDWeightDecayPullsTowardZero(t *testing.T) {
	p := NewParam("w", tensor.FromSlice([]float32{10}, 1))
	opt := NewSGD(0.1, 0, 0.5)
	p.Grad.Zero()
	opt.Step([]*Param{p})
	// value -= lr * wd * value = 10 - 0.1*0.5*10 = 9.5
	if got := p.Value.Data()[0]; math.Abs(float64(got)-9.5) > 1e-6 {
		t.Fatalf("weight decay step = %v, want 9.5", got)
	}
}

func TestSGDDeterminism(t *testing.T) {
	run := func() *tensor.Tensor {
		rng := rand.New(rand.NewSource(42))
		p := NewParam("w", tensor.Rand(rng, -1, 1, 8))
		opt := NewSGD(0.05, 0.9, 1e-4)
		for step := 0; step < 20; step++ {
			for i := range p.Grad.Data() {
				p.Grad.Data()[i] = float32(i%3) - 1
			}
			opt.Step([]*Param{p})
		}
		return p.Value
	}
	if !run().Equal(run()) {
		t.Fatal("SGD must be bitwise deterministic")
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = ||w - target||² by hand-computed gradients.
	target := tensor.FromSlice([]float32{3, -2, 0.5}, 3)
	p := NewParam("w", tensor.New(3))
	opt := NewSGD(0.1, 0.9, 0)
	for step := 0; step < 200; step++ {
		// grad = 2(w - target)
		tensor.Serial{}.Sub(p.Grad, p.Value, target)
		tensor.ScaleInPlace(p.Grad, 2)
		opt.Step([]*Param{p})
	}
	if !p.Value.AllClose(target, 1e-3, 1e-3) {
		t.Fatalf("SGD did not converge: %v, want %v", p.Value, target)
	}
}

func TestTrainingReducesLossEndToEnd(t *testing.T) {
	// A small CNN should fit 16 random samples (memorization test): the
	// loss after training must drop by a large factor.
	rng := rand.New(rand.NewSource(7))
	net := NewSequential(
		NewConv2d(rng, 1, 4, 3, 1, 1, true),
		NewReLU(),
		NewFlatten(),
		NewLinear(rng, 4*8*8, 4, true),
	)
	x := tensor.Rand(rng, -1, 1, 16, 1, 8, 8)
	labels := make([]int, 16)
	target := tensor.New(16, 4) // one-hot rows
	for i := range labels {
		labels[i] = rng.Intn(4)
		target.Set(1, i, labels[i])
	}
	opt := NewSGD(0.1, 0.9, 0)
	params := net.Params()

	firstLoss := -1.0
	var lastLoss float64
	for epoch := 0; epoch < 60; epoch++ {
		ZeroGrads(params)
		out := net.Forward(x, true)
		loss, grad := MSELoss(nil, out, target)
		if firstLoss < 0 {
			firstLoss = loss
		}
		lastLoss = loss
		net.Backward(grad)
		opt.Step(params)
	}
	if lastLoss > firstLoss*0.2 {
		t.Fatalf("training did not reduce loss: first %v last %v", firstLoss, lastLoss)
	}
	out := net.Forward(x, false)
	if acc := Accuracy(out, labels); acc < 0.9 {
		t.Fatalf("network failed to memorize: accuracy %v", acc)
	}
}
