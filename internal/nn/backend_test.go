package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

// convPair builds two bit-identical Conv2d layers and routes the second
// through be.
func convPair(t *testing.T, inC, outC, k, stride, pad int, be tensor.Backend) (*Conv2d, *Conv2d) {
	t.Helper()
	ref := packed(NewConv2d(rand.New(rand.NewSource(11)), inC, outC, k, stride, pad, true))
	par := packed(NewConv2d(rand.New(rand.NewSource(11)), inC, outC, k, stride, pad, true))
	ApplyBackend(par, be)
	return ref, par
}

// TestConvBackendParity runs several training steps of the same Conv2d
// on the serial and parallel backends across odd geometries and asserts
// bit-identical outputs, input gradients, and parameter gradients. This
// is the layer-level face of the backend contract: switching backends
// must never change a single bit of the training trajectory.
func TestConvBackendParity(t *testing.T) {
	cases := []struct{ n, inC, outC, h, w, k, stride, pad int }{
		{1, 1, 1, 5, 5, 3, 1, 1},
		{2, 3, 5, 8, 8, 3, 1, 1},
		{3, 4, 2, 7, 9, 3, 2, 1},
		{1, 6, 7, 6, 6, 1, 1, 0},
	}
	parallel := tensor.NewParallel(3)
	for _, cse := range cases {
		label := fmt.Sprintf("%+v", cse)
		ref, par := convPair(t, cse.inC, cse.outC, cse.k, cse.stride, cse.pad, parallel)
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 3; step++ {
			x := tensor.Rand(rng, -1, 1, cse.n, cse.inC, cse.h, cse.w)
			outRef := ref.Forward(x, true)
			outPar := par.Forward(x.Clone(), true)
			if !outPar.Equal(outRef) {
				t.Fatalf("%s step %d: forward outputs differ between backends", label, step)
			}
			grad := tensor.Rand(rand.New(rand.NewSource(int64(step))), -1, 1, outRef.Shape()...)
			dxRef := ref.Backward(grad)
			dxPar := par.Backward(grad.Clone())
			if !dxPar.Equal(dxRef) {
				t.Fatalf("%s step %d: input gradients differ between backends", label, step)
			}
			pr, pp := ref.Params(), par.Params()
			for i := range pr {
				if !pp[i].Grad.Equal(pr[i].Grad) {
					t.Fatalf("%s step %d: %s gradient differs between backends", label, step, pr[i].Name)
				}
			}
		}
	}
}

// TestLinearBackendParity mirrors TestConvBackendParity for Linear,
// including batch sizes that do not divide evenly across workers.
func TestLinearBackendParity(t *testing.T) {
	parallel := tensor.NewParallel(4)
	for _, batch := range []int{1, 3, 7} {
		ref := packed(NewLinear(rand.New(rand.NewSource(21)), 13, 9, true))
		par := packed(NewLinear(rand.New(rand.NewSource(21)), 13, 9, true))
		ApplyBackend(par, parallel)
		rng := rand.New(rand.NewSource(6))
		for step := 0; step < 3; step++ {
			x := tensor.Rand(rng, -1, 1, batch, 13)
			outRef := ref.Forward(x, true)
			outPar := par.Forward(x.Clone(), true)
			if !outPar.Equal(outRef) {
				t.Fatalf("batch %d step %d: forward outputs differ", batch, step)
			}
			grad := tensor.Rand(rand.New(rand.NewSource(int64(step))), -1, 1, batch, 9)
			if !par.Backward(grad.Clone()).Equal(ref.Backward(grad)) {
				t.Fatalf("batch %d step %d: input gradients differ", batch, step)
			}
			pr, pp := ref.Params(), par.Params()
			for i := range pr {
				if !pp[i].Grad.Equal(pr[i].Grad) {
					t.Fatalf("batch %d step %d: %s gradient differs", batch, step, pr[i].Name)
				}
			}
		}
	}
}

// TestApplyBackendRecurses checks the tree walker reaches layers nested
// in Sequential, Residual, and MixedOp branches.
func TestApplyBackendRecurses(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inner := NewConv2d(rng, 3, 3, 3, 1, 1, false)
	branchA := NewSequential(NewConv2d(rng, 3, 3, 1, 1, 0, false))
	branchB := NewResidual(inner)
	mix := NewMixedOp(branchA, branchB)
	model := NewSequential(mix, NewLinearFrom(t, rng))

	be := tensor.NewParallel(2)
	ApplyBackend(model, be)
	if mix.be != be {
		t.Fatal("ApplyBackend did not reach the MixedOp combiner")
	}
	if branchA.Layers[0].(*Conv2d).be != be {
		t.Fatal("ApplyBackend did not reach a Sequential branch child")
	}
	if inner.be != be {
		t.Fatal("ApplyBackend did not reach a Residual body")
	}
	// And behaviourally: forward on the configured tree must stay
	// bit-identical to a serial clone.
	rng2 := rand.New(rand.NewSource(31))
	inner2 := NewConv2d(rng2, 3, 3, 3, 1, 1, false) // same rng draw order as above
	branchA2 := NewSequential(NewConv2d(rng2, 3, 3, 1, 1, 0, false))
	branchB2 := NewResidual(inner2)
	mix2 := NewMixedOp(branchA2, branchB2)
	model2 := NewSequential(mix2, NewLinearFrom(t, rng2))

	x := tensor.Rand(rand.New(rand.NewSource(8)), -1, 1, 2, 3, 6, 6)
	if !model.Forward(x, false).Equal(model2.Forward(x.Clone(), false)) {
		t.Fatal("backend-configured model tree diverged from serial clone")
	}
}

// TestMixedOpIdentityBranchBackward regresses gradient aliasing: an
// identity-like branch (empty Sequential) returns its input from
// Backward, so MixedOp must not share one scaled buffer across branches
// — when the identity branch comes first, dx would alias the buffer and
// the next branch's scale would overwrite the accumulated gradient.
// Asymmetric alphas ensure the corruption cannot cancel arithmetically.
func TestMixedOpIdentityBranchBackward(t *testing.T) {
	mix := packed(NewMixedOp(NewSequential(), NewReLU()))
	mix.Alpha.Value.Data()[0] = 1 // w0 != w1
	x := tensor.Rand(rand.New(rand.NewSource(9)), -1, 1, 3, 4)
	mix.Forward(x, true)
	grad := tensor.Rand(rand.New(rand.NewSource(10)), -1, 1, 3, 4)
	dx := mix.Backward(grad)

	// Expected by hand: w0*grad through identity, w1*grad gated by the
	// ReLU mask.
	w := mix.Weights()
	want := tensor.New(3, 4)
	xd, gd, wd := x.Data(), grad.Data(), want.Data()
	for i := range wd {
		wd[i] = float32(w[0]) * gd[i]
		if xd[i] > 0 {
			wd[i] += float32(w[1]) * gd[i]
		}
	}
	if !dx.AllClose(want, 1e-6, 1e-6) {
		t.Fatalf("identity-branch MixedOp dx corrupted:\n got %v\nwant %v", dx, want)
	}
}

// TestConvEvalForwardPreservesBackwardCache regresses the arena scratch
// handling: Forward(train) → Forward(eval) → Backward must differentiate
// the training batch, identically to a twin that never ran the eval pass.
func TestConvEvalForwardPreservesBackwardCache(t *testing.T) {
	ref := packed(NewConv2d(rand.New(rand.NewSource(13)), 3, 4, 3, 1, 1, true))
	probed := packed(NewConv2d(rand.New(rand.NewSource(13)), 3, 4, 3, 1, 1, true))
	rng := rand.New(rand.NewSource(14))
	xTrain := tensor.Rand(rng, -1, 1, 2, 3, 6, 6)
	xEval := tensor.Rand(rng, -1, 1, 5, 3, 6, 6) // different batch size too
	grad := tensor.Rand(rng, -1, 1, 2, 4, 6, 6)

	out := ref.Forward(xTrain, true)
	dxRef := ref.Backward(grad)

	if !probed.Forward(xTrain, true).Equal(out) {
		t.Fatal("twin layers diverged on the training forward")
	}
	probed.Forward(xEval, false) // must not disturb the backward cache
	dx := probed.Backward(grad)
	if !dx.Equal(dxRef) {
		t.Fatal("eval forward between train forward and backward changed the input gradient")
	}
	pr, pp := ref.Params(), probed.Params()
	for i := range pr {
		if !pp[i].Grad.Equal(pr[i].Grad) {
			t.Fatalf("eval forward between train forward and backward changed %s gradient", pr[i].Name)
		}
	}
}

// NewLinearFrom builds the flatten+linear tail used by the walker test.
func NewLinearFrom(t *testing.T, rng *rand.Rand) Layer {
	t.Helper()
	return NewSequential(NewGlobalAvgPool2d(), NewFlatten(), NewLinear(rng, 3, 4, true))
}

// BenchmarkConvForward compares a realistic 3×3 Conv2d forward pass (the
// fused conv GEMM, then one pass that moves each output plane to its NCHW
// place and adds its bias) on the serial and
// parallel backends across layer widths, over 8 images of 28×28 and of
// 16×16. At 16×16 the output rows are whole 8-column panels, so the GEMM
// reads its taps in place from a zero-bordered copy of the input; at
// 28×28 they are not, and it packs im2col panels.
func BenchmarkConvForward(b *testing.B) {
	for _, hw := range []int{28, 16} {
		for _, c := range []int{16, 64} {
			for _, name := range []string{"serial", "parallel"} {
				be, _ := tensor.Lookup(name)
				conv := NewConv2d(rand.New(rand.NewSource(1)), c, c, 3, 1, 1, true)
				ApplyBackend(conv, be)
				x := tensor.Rand(rand.New(rand.NewSource(2)), -1, 1, 8, c, hw, hw)
				b.Run(fmt.Sprintf("%dx%d/c%d/%s", hw, hw, c, name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						conv.Forward(x, false)
					}
				})
			}
		}
	}
}

// benchTrainStep times a full forward+backward step of l, the unit of
// work runMember executes per block, on an input (and an output gradient)
// of the given shape. Like the engine's device loop, l draws its tensors
// from an arena reset before every step, so a step reuses the last one's
// memory instead of allocating (and clearing) its own.
func benchTrainStep(b *testing.B, l Layer, shape ...int) {
	x := tensor.Rand(rand.New(rand.NewSource(2)), -1, 1, shape...)
	grad := tensor.Rand(rand.New(rand.NewSource(3)), -1, 1, shape...)
	packed(l)
	ar := withArena(b, l)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar.Reset()
		l.Forward(x, true)
		ZeroGrads(l.Params())
		l.Backward(grad)
	}
}

// withArena makes l draw its tensors from a fresh arena for the rest of
// the benchmark and detaches it when the benchmark ends.
func withArena(b *testing.B, l Layer) *tensor.Arena {
	ar := tensor.NewArena()
	ApplyArena(l, ar)
	b.Cleanup(func() { ApplyArena(l, nil) })
	return ar
}

// benchTrainStepBackends runs benchTrainStep on a fresh layer per backend.
func benchTrainStepBackends(b *testing.B, mk func() Layer, shape ...int) {
	for _, name := range []string{"serial", "parallel"} {
		be, _ := tensor.Lookup(name)
		l := mk()
		ApplyBackend(l, be)
		b.Run(name, func(b *testing.B) { benchTrainStep(b, l, shape...) })
	}
}

func BenchmarkConvTrainStep(b *testing.B) {
	benchTrainStepBackends(b, func() Layer {
		return NewConv2d(rand.New(rand.NewSource(1)), 32, 32, 3, 1, 1, true)
	}, 8, 32, 14, 14)
}

// BenchmarkConvBlockStep times the tiny workbench's conv blocks as the
// engine runs them, at the conv_inproc geometry of `go run ./benchmark`
// ([16,16,16,16]) and the cluster workloads' ([16,6,8,8]): the teacher
// block's evaluation forward (conv3×3 → BatchNorm → ReLU, the BatchNorm
// and the ReLU folded into the conv's pass over its GEMM's output) and
// the student block's training step (depthwise → conv1×1 with bias →
// ReLU, forward and backward), and within that step the conv1×1's input
// gradient, a conv of the NCHW gradient by Wᵀ (pw_dx), and its weight
// gradient, the [OutC, N·HW] gradient times x's transpose (pw_dw).
func BenchmarkConvBlockStep(b *testing.B) {
	for _, s := range []struct {
		name     string
		n, c, hw int
	}{{"conv_inproc", 16, 16, 16}, {"cluster", 16, 6, 8}} {
		rng := rand.New(rand.NewSource(1))
		teacher := NewSequential(NewConv2d(rng, s.c, s.c, 3, 1, 1, false), NewBatchNorm2d(s.c), NewReLU())
		student := NewSequential(NewDWConv2d(rng, s.c, 3, 1, 1, false), NewConv2d(rng, s.c, s.c, 1, 1, 0, true), NewReLU())
		x := tensor.Rand(rng, -1, 1, s.n, s.c, s.hw, s.hw)
		wt, grad := tensor.Rand(rng, -1, 1, s.c, s.c), tensor.Rand(rng, -1, 1, s.n, s.c, s.hw, s.hw)
		dx := tensor.New(s.n, s.c, s.hw, s.hw)
		b.Run(s.name+"/pw_dx", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.Default().ConvForwardInto(dx, wt, grad, 1, 1, 1, 0)
			}
		})
		flat, dw := tensor.Rand(rng, -1, 1, s.c, s.n*s.hw*s.hw), tensor.New(s.c, s.c)
		b.Run(s.name+"/pw_dw", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.Default().ConvGradWeightInto(dw, flat, x, 1, 1, 1, 0)
			}
		})
		b.Run(s.name+"/teacher_eval", func(b *testing.B) {
			ar := withArena(b, teacher)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ar.Reset()
				teacher.Forward(x, false)
			}
		})
		b.Run(s.name+"/student_step", func(b *testing.B) { benchTrainStep(b, student, s.n, s.c, s.hw, s.hw) })
	}
}

func BenchmarkAttentionTrainStep(b *testing.B) {
	benchTrainStepBackends(b, func() Layer {
		return NewMultiHeadAttention(rand.New(rand.NewSource(1)), 64, 4)
	}, 16, 16, 64)
}

// BenchmarkDWConvTrainStep and BenchmarkReLUTrainStep time the depthwise
// conv and the ReLU of the depthwise-separable student at the conv_inproc
// geometry of `go run ./benchmark`; the depthwise conv also at the
// cluster workloads' [16,6,8,8], where each 8-wide row is one AVX block
// whose lanes all meet a border. Both run the same code on every
// backend, so they are timed once.
func BenchmarkDWConvTrainStep(b *testing.B) {
	for _, s := range []struct {
		name       string
		n, c, h, w int
	}{{"conv_inproc", 16, 16, 16, 16}, {"cluster", 16, 6, 8, 8}} {
		l := NewDWConv2d(rand.New(rand.NewSource(1)), s.c, 3, 1, 1, false)
		b.Run(s.name, func(b *testing.B) { benchTrainStep(b, l, s.n, s.c, s.h, s.w) })
	}
}

func BenchmarkReLUTrainStep(b *testing.B) {
	benchTrainStep(b, NewReLU(), 16, 16, 16, 16)
}

// BenchmarkGELUTrainStep and BenchmarkSoftmaxLastDim time the two
// transcendental sites of the transformer at the xfmr_inproc geometry:
// the teacher's feed-forward activation [16·32, 256] and one layer's
// attention scores [16·4, 32, 32]. Neither touches a backend.
func BenchmarkGELUTrainStep(b *testing.B) {
	benchTrainStep(b, NewGELU(), 16, 32, 256)
}

func BenchmarkSoftmaxLastDim(b *testing.B) {
	x := tensor.Rand(rand.New(rand.NewSource(2)), -4, 4, 16, 4, 32, 32)
	ar := tensor.NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxLastDim(ar, x)
		ar.Reset()
	}
}

// BenchmarkLayerNormTrainStep and BenchmarkLinearTrainStep time the
// transformer's other row kernels at the same geometry: a LayerNorm over
// [16·32, 64] rows, and an attention projection, 64 → 64 with its bias
// add and bias-gradient sums, on [16·32, 64].
func BenchmarkLayerNormTrainStep(b *testing.B) {
	benchTrainStep(b, NewLayerNorm(64), 16, 32, 64)
}

func BenchmarkLinearTrainStep(b *testing.B) {
	benchTrainStepBackends(b, func() Layer {
		return NewLinear(rand.New(rand.NewSource(1)), 64, 64, true)
	}, 16*32, 64)
}
