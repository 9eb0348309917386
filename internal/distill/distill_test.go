package distill

import (
	"math/rand"
	"testing"

	"pipebd/internal/nn"
	"pipebd/internal/tensor"
)

func TestTinyWorkbenchReproducible(t *testing.T) {
	a := NewTinyWorkbench(DefaultTinyConfig())
	b := NewTinyWorkbench(DefaultTinyConfig())
	for blk := 0; blk < a.NumBlocks(); blk++ {
		pa, pb := a.StudentParams(blk), b.StudentParams(blk)
		for i := range pa {
			if !pa[i].Value.Equal(pb[i].Value) {
				t.Fatalf("block %d param %d differs across constructions", blk, i)
			}
		}
	}
}

func TestReplicaIsIndependentCopy(t *testing.T) {
	w := NewTinyWorkbench(DefaultTinyConfig())
	w.StudentParams(0)[0].Value.Data()[0] += 0.5 // moved off its construction
	r := w.Replica()
	p0 := w.StudentParams(0)[0]
	r0 := r.StudentParams(0)[0]
	if !p0.Value.Equal(r0.Value) {
		t.Fatal("replica must start bit-identical to the workbench's current weights")
	}
	p0.Value.Data()[0] += 1
	if p0.Value.Equal(r0.Value) {
		t.Fatal("replica must not alias the original")
	}
}

func TestStepShapesAndLoss(t *testing.T) {
	cfg := DefaultTinyConfig()
	w := NewTinyWorkbench(cfg)
	rng := rand.New(rand.NewSource(1))
	x := tensor.Rand(rng, -1, 1, 4, 3, cfg.Height, cfg.Width)
	tOut, loss := Step(w.Pairs[0], x)
	if loss <= 0 {
		t.Fatalf("untrained student should have positive loss, got %v", loss)
	}
	want := []int{4, cfg.Channels, cfg.Height, cfg.Width}
	for i, d := range want {
		if tOut.Shape()[i] != d {
			t.Fatalf("teacher output shape %v, want %v", tOut.Shape(), want)
		}
	}
	// Gradients must have accumulated on the student.
	var nonzero bool
	for _, p := range w.StudentParams(0) {
		for _, g := range p.Grad.Data() {
			nonzero = nonzero || g != 0
		}
	}
	if !nonzero {
		t.Fatal("Step did not accumulate student gradients")
	}
}

func TestStepDoesNotTouchTeacher(t *testing.T) {
	cfg := DefaultTinyConfig()
	w := NewTinyWorkbench(cfg)
	rng := rand.New(rand.NewSource(2))
	x := tensor.Rand(rng, -1, 1, 4, 3, cfg.Height, cfg.Width)

	before := make([]*tensor.Tensor, 0)
	for _, p := range w.Pairs[0].Teacher.Params() {
		before = append(before, p.Value.Clone())
	}
	Step(w.Pairs[0], x)
	for i, p := range w.Pairs[0].Teacher.Params() {
		if !p.Value.Equal(before[i]) {
			t.Fatal("teacher weights changed during distillation step")
		}
	}
}

func TestChainGeometry(t *testing.T) {
	cfg := DefaultTinyConfig()
	w := NewTinyWorkbench(cfg)
	rng := rand.New(rand.NewSource(3))
	x := tensor.Rand(rng, -1, 1, 2, 3, cfg.Height, cfg.Width)
	tOut := w.TeacherForward(x)
	sOut := w.StudentForward(x)
	if !tOut.SameShape(sOut) {
		t.Fatalf("teacher %v and student %v outputs misaligned", tOut.Shape(), sOut.Shape())
	}
}

func TestClassifierHeadConfig(t *testing.T) {
	cfg := DefaultTinyConfig()
	cfg.Classes = 5
	w := NewTinyWorkbench(cfg)
	rng := rand.New(rand.NewSource(4))
	x := tensor.Rand(rng, -1, 1, 3, 3, cfg.Height, cfg.Width)
	out := w.TeacherForward(x)
	if out.Dim(1) != 5 {
		t.Fatalf("classifier output %v, want 5 classes", out.Shape())
	}
}

func TestTrainingOneBlockConvergesToTeacher(t *testing.T) {
	cfg := DefaultTinyConfig()
	w := NewTinyWorkbench(cfg)
	rng := rand.New(rand.NewSource(6))
	opt := nn.NewSGD(0.05, 0.9, 0)
	pair := w.Pairs[1]
	x := tensor.Rand(rng, -1, 1, 8, cfg.Channels, cfg.Height, cfg.Width)
	var first, last float64
	for step := 0; step < 600; step++ {
		nn.ZeroGrads(pair.Student.Params())
		_, loss := Step(pair, x)
		opt.Step(pair.Student.Params())
		if step == 0 {
			first = loss
		}
		last = loss
	}
	// The depthwise-separable student has far less capacity than the
	// convolutional teacher block (~96 vs ~324 weights here), so the
	// loss converges to a non-zero floor; require a 3x reduction, which
	// demonstrates optimization works without demanding the impossible.
	if last > first*0.33 {
		t.Fatalf("block distillation failed to converge: %v -> %v", first, last)
	}
}

func TestNewTinyWorkbenchPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTinyWorkbench(TinyConfig{Blocks: 0})
}
