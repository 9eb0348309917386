package nn

import (
	"math/rand"
	"strings"
	"testing"

	"pipebd/internal/tensor"
)

// Regression tests for the stale-activation-cache bug: a train-mode
// Forward followed by an eval-mode Forward (teacher inference, metrics, a
// differently shaped probe batch) used to leave the training cache from
// the first batch in place, so a subsequent Backward silently gated with
// the wrong mask — or indexed out of range on a shape change. Every
// caching layer must now invalidate its cache on eval forwards and
// length-check it in Backward.

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok {
			if err, isErr := r.(error); isErr {
				msg = err.Error()
			}
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	f()
}

// TestReLUEvalForwardInvalidatesMask is the original bug: train forward,
// eval forward, then backward. The eval forward must clear the mask so
// the backward fails loudly instead of applying batch-1 gating to
// batch-2 gradients.
func TestReLUEvalForwardInvalidatesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewReLU()
	r.Forward(tensor.Rand(rng, -1, 1, 2, 3), true)
	r.Forward(tensor.Rand(rng, -1, 1, 2, 3), false)
	mustPanic(t, "before Forward(train=true)", func() {
		r.Backward(tensor.Rand(rng, -1, 1, 2, 3))
	})
}

// TestReLUShapeMismatchCaught: a train forward on one shape followed by a
// backward for another must be rejected by the length check rather than
// silently gating a prefix (or panicking with a bare index error).
func TestReLUShapeMismatchCaught(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewReLU()
	r.Forward(tensor.Rand(rng, -1, 1, 4, 4), true)
	mustPanic(t, "stale forward", func() {
		r.Backward(tensor.Rand(rng, -1, 1, 2, 3))
	})
}

// TestReLUTrainEvalTrainBackward: the legitimate sequence — train, eval,
// train, backward — must keep working, with the backward consuming the
// second train forward's mask.
func TestReLUTrainEvalTrainBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewReLU()
	r.Forward(tensor.Rand(rng, -1, 1, 2, 2), true)
	r.Forward(tensor.Rand(rng, -1, 1, 5, 5), false)
	x := tensor.Rand(rng, -1, 1, 3, 3)
	out := r.Forward(x, true)
	grad := tensor.Rand(rng, -1, 1, 3, 3)
	dx := r.Backward(grad)
	for i, v := range x.Data() {
		want := float32(0)
		if out.Data()[i] > 0 {
			want = grad.Data()[i]
		}
		if dx.Data()[i] != want {
			t.Fatalf("element %d (x=%v): got %v want %v", i, v, dx.Data()[i], want)
		}
	}
}

// TestTransformerCachesInvalidatedByEvalForward applies the same guard
// contract to every caching layer the transformer workload introduced.
func TestTransformerCachesInvalidatedByEvalForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		name  string
		layer Layer
		input func() *tensor.Tensor
	}{
		{"GELU", NewGELU(), func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 3) }},
		{"LayerNorm", NewLayerNorm(4), func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 4) }},
		{"MHA", NewMultiHeadAttention(rng, 4, 2), func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 3, 4) }},
		{"MeanPoolSeq", NewMeanPoolSeq(), func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 3, 4) }},
		{"Embedding", NewEmbedding(rng, 5, 3, 4), func() *tensor.Tensor {
			ids := tensor.New(2, 3)
			for i := range ids.Data() {
				ids.Data()[i] = float32(rng.Intn(5))
			}
			return ids
		}},
	}
	for _, c := range cases {
		packed(c.layer)
		t.Run(c.name, func(t *testing.T) {
			x := c.input()
			out := c.layer.Forward(x, true)
			c.layer.Forward(c.input(), false)
			mustPanic(t, "before Forward(train=true)", func() {
				c.layer.Backward(tensor.New(out.Shape()...))
			})
			// And after a fresh train forward the backward runs again.
			out = c.layer.Forward(x, true)
			c.layer.Backward(tensor.New(out.Shape()...))
		})
	}
}

// TestTransformerCachesLengthChecked: shape-changing train forwards are
// legal (the cache is replaced), but a backward whose gradient shape
// disagrees with the cache must fail the length check.
func TestTransformerCachesLengthChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := NewGELU()
	g.Forward(tensor.Rand(rng, -1, 1, 2, 3), true)
	mustPanic(t, "stale forward", func() { g.Backward(tensor.Rand(rng, -1, 1, 4, 4)) })

	ln := NewLayerNorm(4)
	ln.Forward(tensor.Rand(rng, -1, 1, 2, 4), true)
	mustPanic(t, "stale forward", func() { ln.Backward(tensor.Rand(rng, -1, 1, 3, 4)) })

	a := NewMultiHeadAttention(rng, 4, 2)
	a.Forward(tensor.Rand(rng, -1, 1, 2, 3, 4), true)
	mustPanic(t, "stale forward", func() { a.Backward(tensor.Rand(rng, -1, 1, 1, 3, 4)) })

	e := NewEmbedding(rng, 5, 3, 4)
	ids := tensor.New(2, 3)
	e.Forward(ids, true)
	mustPanic(t, "stale forward", func() { e.Backward(tensor.Rand(rng, -1, 1, 1, 3, 4)) })
}

// TestConvBackwardGradShapeChecked: Conv2d and DWConv2d used to read the
// output geometry off the gradient they were handed, so a gradient that
// did not match the cached training forward mis-indexed the cached input
// silently (or died on a bare index error). Every dimension is checked now.
func TestConvBackwardGradShapeChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layers := map[string]Layer{
		"Conv2d":   NewConv2d(rng, 3, 3, 3, 1, 1, true),
		"DWConv2d": NewDWConv2d(rng, 3, 3, 1, 1, true),
	}
	for name, l := range layers {
		packed(l)
		l.Forward(tensor.Rand(rng, -1, 1, 2, 3, 6, 6), true)
		for _, bad := range [][]int{
			{2, 3, 6, 5}, // narrower: used to mis-index silently
			{2, 3, 7, 6}, // taller: used to index out of range
			{1, 3, 6, 6}, // fewer images
			{2, 4, 6, 6}, // more channels
			{2, 3, 36},   // right size, wrong rank
		} {
			mustPanic(t, name+".Backward grad shape", func() { l.Backward(tensor.Rand(rng, -1, 1, bad...)) })
		}
		mustPanic(t, "stale forward", func() { l.Backward(tensor.Rand(rng, -1, 1, 2, 3, 3, 3)) })
		l.Backward(tensor.Rand(rng, -1, 1, 2, 3, 6, 6)) // the matching gradient still runs
	}
}

// TestBackwardAfterArenaResetPanics: under an attached arena a layer's
// training cache (its input, xhat, probabilities, a shape slice) is arena
// memory, recycled by the owner's Reset. A Backward in a later generation
// must fail loudly, with the stale-forward wording, instead of reading
// whatever the next step wrote there — and must run again after a fresh
// training forward.
func TestBackwardAfterArenaResetPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	image := func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 3, 4, 4) }
	hidden := func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 3, 4) }
	cases := []struct {
		name  string
		layer Layer
		input func() *tensor.Tensor
	}{
		{"Conv2d", NewConv2d(rng, 3, 2, 3, 1, 1, true), image},
		{"DWConv2d", NewDWConv2d(rng, 3, 3, 1, 1, true), image},
		{"Linear", NewLinear(rng, 4, 3, true), func() *tensor.Tensor { return tensor.Rand(rng, -1, 1, 2, 4) }},
		{"ReLU", NewReLU(), image},
		{"BatchNorm2d", NewBatchNorm2d(3), image},
		{"GlobalAvgPool2d", NewGlobalAvgPool2d(), image},
		{"Flatten", NewFlatten(), image},
		{"LayerNorm", NewLayerNorm(4), hidden},
		{"GELU", NewGELU(), hidden},
		{"MultiHeadAttention", NewMultiHeadAttention(rng, 4, 2), hidden},
		{"Embedding", NewEmbedding(rng, 5, 3, 4), func() *tensor.Tensor { return tensor.New(2, 3) }},
		{"MixedOp", NewMixedOp(NewReLU(), NewReLU()), image},
	}
	for _, c := range cases {
		packed(c.layer)
		t.Run(c.name, func(t *testing.T) {
			ar := tensor.NewArena()
			ApplyArena(c.layer, ar)
			x := c.input()
			shape := append([]int(nil), c.layer.Forward(x, true).Shape()...)
			ar.Reset()
			mustPanic(t, c.name+".Backward in arena generation 1 but its cache is from generation 0 (stale forward?)",
				func() { c.layer.Backward(tensor.New(shape...)) })
			c.layer.Forward(x, true)
			c.layer.Backward(tensor.New(shape...))

			// Detached, the layer is garbage-collected again: outputs of two
			// forwards do not share memory.
			ApplyArena(c.layer, nil)
			if a, b := c.layer.Forward(x, false), c.layer.Forward(x, false); &a.Data()[0] == &b.Data()[0] {
				t.Fatal("a detached layer still recycles its outputs")
			}
		})
	}
}

// TestApplyArenaReachesNestedLayers: one walk attaches every allocating
// layer of a block, however nested, so a training step under an arena
// draws nothing from the heap the second time round.
func TestApplyArenaReachesNestedLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	block := packed(NewSequential(
		NewEmbedding(rng, 16, 6, 8),
		NewResidual(NewMultiHeadAttention(rng, 8, 2)),
		NewLayerNorm(8),
		NewResidual(NewFeedForward(rng, 8, 16)),
		NewLayerNorm(8),
		NewMeanPoolSeq(),
		NewLinear(rng, 8, 4, true),
	))
	ar := tensor.NewArena()
	ApplyArena(block, ar)
	ids := tensor.New(4, 6)
	step := func() (out *tensor.Tensor) {
		ar.Reset()
		out = block.Forward(ids, true)
		block.Backward(out)
		return out
	}
	first := step()
	// Arena tensors come back in request order: were any layer detached,
	// its fresh allocation would shift nothing here but the final output
	// would not be the same recycled tensor.
	if second := step(); second != first {
		t.Fatal("the block's output was not recycled: some nested layer allocates outside the arena")
	}
	// What is left is not tensor storage: 8 Reshape calls, each making its
	// shape argument, a header and the header's shape, 24 in all. The GEMM
	// drivers make none.
	if got := testing.AllocsPerRun(5, func() { step() }); got > 24 {
		t.Fatalf("a training step under an arena makes %v allocations, want the 24 of Reshape", got)
	}
}
