package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

// lossOf computes a fixed linear functional of the layer output:
// L = Σ w_i · out_i. Its gradient with respect to the output is exactly w,
// giving full coverage of every output element during gradient checks.
func lossOf(l Layer, x, w *tensor.Tensor, train bool) float64 {
	out := l.Forward(x, train)
	var s float64
	od, wd := out.Data(), w.Data()
	for i := range od {
		s += float64(od[i]) * float64(wd[i])
	}
	return s
}

// packed packs l's parameters, if it has any, as a trained block's are
// (Pack), so that Backward has gradients to accumulate into; it returns l.
func packed[L Layer](l L) L {
	if params := l.Params(); len(params) > 0 {
		Pack(params)
	}
	return l
}

// checkGradients verifies analytic input and parameter gradients of layer l
// against central finite differences at input x.
func checkGradients(t *testing.T, name string, l Layer, x *tensor.Tensor) {
	t.Helper()
	packed(l)
	rng := rand.New(rand.NewSource(99))
	out := l.Forward(x.Clone(), true)
	w := tensor.Rand(rng, -1, 1, out.Shape()...)

	ZeroGrads(l.Params())
	dx := l.Backward(w)

	const eps = 1e-2
	const tol = 2e-2 // float32 arithmetic; relative + absolute mix below

	compare := func(kind string, analytic float64, probe func(delta float32) float64) {
		t.Helper()
		plus := probe(eps)
		minus := probe(-eps)
		numeric := (plus - minus) / (2 * eps)
		diff := math.Abs(analytic - numeric)
		scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
		if diff/scale > tol {
			t.Errorf("%s: %s gradient mismatch: analytic %v numeric %v", name, kind, analytic, numeric)
		}
	}

	// Input gradient: probe a spread of elements to bound test time.
	n := x.Numel()
	stride := n/7 + 1
	for i := 0; i < n; i += stride {
		i := i
		compare("input", float64(dx.Data()[i]), func(delta float32) float64 {
			xp := x.Clone()
			xp.Data()[i] += delta
			return lossOf(l, xp, w, true)
		})
	}

	// Parameter gradients.
	for _, p := range l.Params() {
		np := p.Value.Numel()
		pstride := np/7 + 1
		for i := 0; i < np; i += pstride {
			i, p := i, p
			compare("param "+p.Name, float64(p.Grad.Data()[i]), func(delta float32) float64 {
				old := p.Value.Data()[i]
				p.Value.Data()[i] = old + delta
				loss := lossOf(l, x.Clone(), w, true)
				p.Value.Data()[i] = old
				return loss
			})
		}
	}
}

func TestConv2dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewConv2d(rng, 3, 4, 3, 1, 1, true)
	checkGradients(t, "Conv2d/s1", l, tensor.Rand(rng, -1, 1, 2, 3, 5, 5))

	l2 := NewConv2d(rng, 2, 3, 3, 2, 1, false)
	checkGradients(t, "Conv2d/s2-nobias", l2, tensor.Rand(rng, -1, 1, 2, 2, 6, 6))

	l3 := NewConv2d(rng, 4, 2, 1, 1, 0, true)
	checkGradients(t, "Conv2d/1x1", l3, tensor.Rand(rng, -1, 1, 1, 4, 4, 4))
}

func TestDWConv2dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewDWConv2d(rng, 3, 3, 1, 1, true)
	checkGradients(t, "DWConv2d/s1", l, tensor.Rand(rng, -1, 1, 2, 3, 5, 5))

	l2 := NewDWConv2d(rng, 2, 3, 2, 1, false)
	checkGradients(t, "DWConv2d/s2", l2, tensor.Rand(rng, -1, 1, 1, 2, 6, 6))
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(rng, 6, 4, true)
	checkGradients(t, "Linear", l, tensor.Rand(rng, -1, 1, 3, 6))
}

func TestBatchNorm2dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewBatchNorm2d(3)
	// Non-trivial gamma/beta so their gradients are exercised.
	l.Gamma.Value.CopyFrom(tensor.Rand(rng, 0.5, 1.5, 3))
	l.Beta.Value.CopyFrom(tensor.Rand(rng, -0.5, 0.5, 3))
	checkGradients(t, "BatchNorm2d", l, tensor.Rand(rng, -2, 2, 4, 3, 3, 3))
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Keep values away from the kink at 0 so finite differences are
	// well-defined.
	x := tensor.Rand(rng, 0.5, 5.5, 2, 3, 4, 4)
	for i, v := range x.Data() {
		if i%2 == 0 {
			x.Data()[i] = -v // clearly negative
		}
	}
	checkGradients(t, "ReLU", NewReLU(), x)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkGradients(t, "GlobalAvgPool2d", NewGlobalAvgPool2d(), tensor.Rand(rng, -1, 1, 2, 3, 4, 4))
}

func TestFlattenGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	checkGradients(t, "Flatten", NewFlatten(), tensor.Rand(rng, -1, 1, 2, 3, 2, 2))
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	body := NewSequential(
		NewConv2d(rng, 3, 3, 3, 1, 1, false),
		NewReLU(),
		NewConv2d(rng, 3, 3, 3, 1, 1, false),
	)
	checkGradients(t, "Residual", NewResidual(body), tensor.Rand(rng, -1, 1, 2, 3, 4, 4))
}

func TestGELUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checkGradients(t, "GELU", NewGELU(), tensor.Rand(rng, -2, 2, 2, 3, 4))
	// Non-square and degenerate shapes.
	checkGradients(t, "GELU/1elem", NewGELU(), tensor.Rand(rng, -2, 2, 1, 1))
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLayerNorm(6)
	l.Gain.Value.CopyFrom(tensor.Rand(rng, 0.5, 1.5, 6))
	l.Bias.Value.CopyFrom(tensor.Rand(rng, -0.5, 0.5, 6))
	checkGradients(t, "LayerNorm", l, tensor.Rand(rng, -2, 2, 2, 3, 6))

	// Seq-len-1 rows: statistics over a single token per sample.
	l1 := NewLayerNorm(5)
	l1.Gain.Value.CopyFrom(tensor.Rand(rng, 0.5, 1.5, 5))
	checkGradients(t, "LayerNorm/L1", l1, tensor.Rand(rng, -2, 2, 2, 1, 5))
}

func TestMultiHeadAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Non-square: L=5 ≠ D=8, two heads.
	l := NewMultiHeadAttention(rng, 8, 2)
	checkGradients(t, "MHA/L5D8H2", l, tensor.Rand(rng, -1, 1, 2, 5, 8))

	// Seq-len-1: softmax over a single position (probability exactly 1).
	l1 := NewMultiHeadAttention(rng, 6, 3)
	checkGradients(t, "MHA/L1", l1, tensor.Rand(rng, -1, 1, 2, 1, 6))

	// Single head.
	lh := NewMultiHeadAttention(rng, 4, 1)
	checkGradients(t, "MHA/H1", lh, tensor.Rand(rng, -1, 1, 1, 3, 4))
}

func TestFeedForwardGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	checkGradients(t, "FeedForward", NewFeedForward(rng, 6, 10), tensor.Rand(rng, -1, 1, 2, 3, 6))
	checkGradients(t, "FeedForward/L1", NewFeedForward(rng, 4, 4), tensor.Rand(rng, -1, 1, 2, 1, 4))
}

func TestMeanPoolSeqGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	checkGradients(t, "MeanPoolSeq", NewMeanPoolSeq(), tensor.Rand(rng, -1, 1, 2, 4, 3))
	checkGradients(t, "MeanPoolSeq/L1", NewMeanPoolSeq(), tensor.Rand(rng, -1, 1, 2, 1, 3))
}

// TestEmbeddingGradients checks the scatter-add parameter gradients by
// finite differences; the input (integer token ids) is not
// differentiable, so only the tables are probed.
func TestEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	const vocab, seqLen, dim = 7, 3, 4
	e := packed(NewEmbedding(rng, vocab, seqLen, dim))
	ids := tensor.New(2, seqLen)
	for i := range ids.Data() {
		ids.Data()[i] = float32(rng.Intn(vocab))
	}
	w := tensor.Rand(rng, -1, 1, 2, seqLen, dim)
	ZeroGrads(e.Params())
	e.Forward(ids, true)
	e.Backward(w)

	const eps = 1e-2
	const tol = 2e-2
	for _, p := range e.Params() {
		for i := 0; i < p.Value.Numel(); i++ {
			probe := func(delta float32) float64 {
				old := p.Value.Data()[i]
				p.Value.Data()[i] = old + delta
				loss := lossOf(e, ids, w, true)
				p.Value.Data()[i] = old
				return loss
			}
			numeric := (probe(eps) - probe(-eps)) / (2 * eps)
			analytic := float64(p.Grad.Data()[i])
			diff := math.Abs(analytic - numeric)
			scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
			if diff/scale > tol {
				t.Errorf("Embedding %s[%d]: analytic %v numeric %v", p.Name, i, analytic, numeric)
			}
		}
	}
}

// TestSoftmaxBackwardGradients drives the max-subtracted softmax backward
// against finite differences of Σ w ⊙ softmax(x), including a width-1
// row (gradient exactly zero: the output is constant 1).
func TestSoftmaxBackwardGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, shape := range [][]int{{3, 5}, {2, 3, 4}, {2, 1}} {
		x := tensor.Rand(rng, -2, 2, shape...)
		w := tensor.Rand(rng, -1, 1, shape...)
		probs := SoftmaxLastDim(nil, x)
		dx := SoftmaxBackwardLastDim(nil, probs, w)
		const eps = 1e-2
		const tol = 2e-2
		for i := 0; i < x.Numel(); i++ {
			probe := func(delta float32) float64 {
				xp := x.Clone()
				xp.Data()[i] += delta
				out := SoftmaxLastDim(nil, xp)
				var s float64
				for j, v := range out.Data() {
					s += float64(v) * float64(w.Data()[j])
				}
				return s
			}
			numeric := (probe(eps) - probe(-eps)) / (2 * eps)
			analytic := float64(dx.Data()[i])
			diff := math.Abs(analytic - numeric)
			scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
			if diff/scale > tol {
				t.Errorf("SoftmaxBackward %v[%d]: analytic %v numeric %v", shape, i, analytic, numeric)
			}
		}
	}
}

// TestKLDivLossGradients checks the temperature-scaled distillation loss
// gradient with respect to the student logits by finite differences, at
// several temperatures and on a single-class edge shape (loss exactly 0).
func TestKLDivLossGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, temp := range []float64{1, 2, 4} {
		for _, shape := range [][]int{{3, 5}, {2, 1}} {
			student := tensor.Rand(rng, -2, 2, shape...)
			teacher := tensor.Rand(rng, -2, 2, shape...)
			_, grad := KLDivLoss(nil, student, teacher, temp)
			const eps = 1e-2
			const tol = 2e-2
			for i := 0; i < student.Numel(); i++ {
				probe := func(delta float32) float64 {
					sp := student.Clone()
					sp.Data()[i] += delta
					loss, _ := KLDivLoss(nil, sp, teacher, temp)
					return loss
				}
				numeric := (probe(eps) - probe(-eps)) / (2 * eps)
				analytic := float64(grad.Data()[i])
				diff := math.Abs(analytic - numeric)
				scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
				if diff/scale > tol {
					t.Errorf("KLDivLoss T=%v %v[%d]: analytic %v numeric %v", temp, shape, i, analytic, numeric)
				}
			}
		}
	}
}

// TestTransformerBlockGradients runs the full encoder-layer composition —
// attention and MLP residuals, both layer norms — through the gradient
// checker, the same structure the transformer workbench blocks use.
func TestTransformerBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const dim = 6
	block := NewSequential(
		NewResidual(NewMultiHeadAttention(rng, dim, 2)),
		NewLayerNorm(dim),
		NewResidual(NewFeedForward(rng, dim, 8)),
		NewLayerNorm(dim),
	)
	checkGradients(t, "TransformerBlock", block, tensor.Rand(rng, -1, 1, 2, 3, dim))
}

func TestSequentialCNNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// GELU keeps the composite smooth: a rectifier's kinks sit where
	// BatchNorm centres its output and break finite differences.
	net := NewSequential(
		NewConv2d(rng, 2, 4, 3, 1, 1, false),
		NewBatchNorm2d(4),
		NewGELU(),
		NewFlatten(),
		NewLinear(rng, 4*6*6, 5, true),
	)
	checkGradients(t, "SequentialCNN", net, tensor.Rand(rng, -2, 2, 3, 2, 6, 6))
}
