package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

// reluOracle is the per-element definition ReLU's tight loops replaced:
// the clamped value and whether the gradient passes.
func reluOracle(v, hi float32) (out float32, pass bool) {
	pass = v > 0 && (hi <= 0 || v < hi)
	switch {
	case v <= 0:
		out = 0
	case hi > 0 && v >= hi:
		out = hi
	default:
		out = v
	}
	return out, pass
}

// TestReLUMatchesPerElementDefinitionBits pins ReLU and ReLU6, training
// and evaluation forwards and the backward gate, to that definition bit
// for bit — on random values and on every special: NaN of either sign
// passes through the output and blocks the gradient, -0 becomes +0, +Inf
// clamps to Cap, and v == Cap is clamped and blocked.
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
	for _, r := range []*ReLU{NewReLU(), {Cap: 6}, {Cap: 0}, {Cap: 0.5}} {
		for _, train := range []bool{false, true, true} { // the second training forward reuses the mask buffer
			out := r.Forward(x, train)
			for i, v := range x.Data() {
				want, _ := reluOracle(v, r.Cap)
				if got := out.Data()[i]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("Cap=%v train=%v: forward(%v) = %v (%#08x), want %v (%#08x)",
						r.Cap, train, v, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
		dx := r.Backward(grad)
		for i, v := range x.Data() {
			want := float32(0)
			if _, pass := reluOracle(v, r.Cap); pass {
				want = grad.Data()[i]
			}
			if got := dx.Data()[i]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("Cap=%v: backward at x=%v, grad=%v = %v (%#08x), want %v (%#08x)",
					r.Cap, v, grad.Data()[i], got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	}
}

var allocSink *tensor.Tensor // keeps measured results from being stack-allocated

// TestReLUTrainingForwardAllocatesOnlyItsOutput: once the mask buffer
// exists, a training forward allocates what tensor.New allocates for the
// output and nothing else — no per-step mask.
func TestReLUTrainingForwardAllocatesOnlyItsOutput(t *testing.T) {
	x := tensor.Rand(rand.New(rand.NewSource(10)), -1, 1, 4, 8, 8, 8)
	r := NewReLU()
	r.Forward(x, true)
	output := testing.AllocsPerRun(20, func() { allocSink = tensor.New(x.Shape()...) })
	if got := testing.AllocsPerRun(20, func() { allocSink = r.Forward(x, true) }); got != output {
		t.Fatalf("steady-state training forward makes %v allocations, its output alone %v", got, output)
	}
	// A smaller batch fits the buffer; a larger one grows it once.
	small := tensor.Rand(rand.New(rand.NewSource(11)), -1, 1, 2, 8, 8, 8)
	if got := testing.AllocsPerRun(20, func() { allocSink = r.Forward(small, true) }); got != output {
		t.Fatalf("smaller batch: %v allocations, want %v", got, output)
	}
	mustPanic(t, "stale forward", func() { r.Backward(x) }) // the mask is the small batch's, not the buffer's
}
