package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

// reluOracle is the per-element definition ReLU's kernels replaced: the
// rectified value and whether the gradient passes.
func reluOracle(v float32) (out float32, pass bool) {
	if v <= 0 {
		return 0, false
	}
	return v, v > 0
}

// TestReLUMatchesPerElementDefinitionBits pins ReLU's training and
// evaluation forwards and its backward gate to that definition bit for
// bit — on random values and on every special: NaN of either sign passes
// through the output and blocks the gradient, -0 becomes +0, and +Inf
// passes.
func TestReLUMatchesPerElementDefinitionBits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	negNaN := math.Float32frombits(0xffc00001)
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), negNaN,
		float32(math.Inf(1)), float32(math.Inf(-1)), 6, -6, math.Nextafter32(6, 0), math.Nextafter32(6, 7),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32}
	x := tensor.Rand(rng, -8, 8, 3, 5, 7)
	copy(x.Data(), specials)
	grad := tensor.Rand(rng, -1, 1, 3, 5, 7)
	copy(grad.Data()[2:], specials) // specials in the gradient land on passing and blocked inputs alike
	r := NewReLU()
	for _, train := range []bool{false, true, true} { // the second training forward replaces the first's cache
		out := r.Forward(x, train)
		for i, v := range x.Data() {
			want, _ := reluOracle(v)
			if got := out.Data()[i]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("train=%v: forward(%v) = %v (%#08x), want %v (%#08x)",
					train, v, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	}
	dx := r.Backward(grad)
	for i, v := range x.Data() {
		want := float32(0)
		if _, pass := reluOracle(v); pass {
			want = grad.Data()[i]
		}
		if got := dx.Data()[i]; math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("backward at x=%v, grad=%v = %v (%#08x), want %v (%#08x)",
				v, grad.Data()[i], got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

var allocSink *tensor.Tensor // keeps measured results from being stack-allocated

// TestReLUTrainingForwardAllocatesOnlyItsOutput: a training forward
// allocates what tensor.New allocates for the output and nothing else —
// its output is the backward's whole cache.
func TestReLUTrainingForwardAllocatesOnlyItsOutput(t *testing.T) {
	x := tensor.Rand(rand.New(rand.NewSource(10)), -1, 1, 4, 8, 8, 8)
	r := NewReLU()
	r.Forward(x, true)
	output := testing.AllocsPerRun(20, func() { allocSink = tensor.New(x.Shape()...) })
	if got := testing.AllocsPerRun(20, func() { allocSink = r.Forward(x, true) }); got != output {
		t.Fatalf("steady-state training forward makes %v allocations, its output alone %v", got, output)
	}
	// A smaller batch is no different.
	small := tensor.Rand(rand.New(rand.NewSource(11)), -1, 1, 2, 8, 8, 8)
	if got := testing.AllocsPerRun(20, func() { allocSink = r.Forward(small, true) }); got != output {
		t.Fatalf("smaller batch: %v allocations, want %v", got, output)
	}
	mustPanic(t, "stale forward", func() { r.Backward(x) }) // the cache is the small batch's
}
