package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipebd/internal/tensor"
)

func TestMSELossZeroAtTarget(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3}, 3)
	loss, grad := MSELoss(nil, x, x.Clone())
	if loss != 0 {
		t.Fatalf("MSE(x,x) = %v, want 0", loss)
	}
	for _, g := range grad.Data() {
		if g != 0 {
			t.Fatal("gradient at minimum must be zero")
		}
	}
}

func TestMSELossKnownValue(t *testing.T) {
	p := tensor.FromSlice([]float32{1, 2}, 2)
	q := tensor.FromSlice([]float32{3, 2}, 2)
	loss, grad := MSELoss(nil, p, q)
	if math.Abs(loss-2) > 1e-9 { // ((1-3)² + 0)/2 = 2
		t.Fatalf("MSE = %v, want 2", loss)
	}
	// grad = 2*(p-q)/n = [-2, 0]
	if grad.Data()[0] != -2 || grad.Data()[1] != 0 {
		t.Fatalf("grad = %v, want [-2 0]", grad.Data())
	}
}

func TestMSELossNonNegativityProperty(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		clean := make([]float32, len(vals))
		for i, v := range vals {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			clean[i] = float32(math.Mod(float64(v), 50))
		}
		p := tensor.FromSlice(clean, len(clean))
		q := tensor.New(len(clean))
		loss, _ := MSELoss(nil, p, q)
		return loss >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMSELossGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := tensor.Rand(rng, -2, 2, 6)
	q := tensor.Rand(rng, -2, 2, 6)
	_, grad := MSELoss(nil, p, q)
	const eps = 1e-2
	for i := 0; i < 6; i++ {
		probe := func(d float32) float64 {
			pp := p.Clone()
			pp.Data()[i] += d
			l, _ := MSELoss(nil, pp, q)
			return l
		}
		numeric := (probe(eps) - probe(-eps)) / (2 * eps)
		if math.Abs(numeric-float64(grad.Data()[i])) > 1e-3 {
			t.Fatalf("MSE grad[%d]: analytic %v numeric %v", i, grad.Data()[i], numeric)
		}
	}
}

func TestSoftmaxCrossEntropyUniformLogits(t *testing.T) {
	logits := tensor.New(2, 4) // all zeros -> uniform distribution
	loss, _ := SoftmaxCrossEntropy(nil, logits, []int{0, 3})
	want := math.Log(4)
	if math.Abs(loss-want) > 1e-6 {
		t.Fatalf("CE = %v, want ln(4) = %v", loss, want)
	}
}

func TestSoftmaxCrossEntropyGradSumsToZero(t *testing.T) {
	// Each row's gradient must sum to zero (softmax probabilities sum to
	// one and the label subtracts exactly one).
	rng := rand.New(rand.NewSource(2))
	logits := tensor.Rand(rng, -3, 3, 5, 7)
	labels := []int{0, 1, 2, 3, 4}
	_, grad := SoftmaxCrossEntropy(nil, logits, labels)
	for r := 0; r < 5; r++ {
		var s float64
		for c := 0; c < 7; c++ {
			s += float64(grad.At(r, c))
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("row %d gradient sums to %v, want 0", r, s)
		}
	}
}

func TestSoftmaxCrossEntropyGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	logits := tensor.Rand(rng, -2, 2, 3, 4)
	labels := []int{1, 3, 0}
	_, grad := SoftmaxCrossEntropy(nil, logits, labels)
	const eps = 1e-2
	for i := 0; i < logits.Numel(); i++ {
		probe := func(d float32) float64 {
			lp := logits.Clone()
			lp.Data()[i] += d
			l, _ := SoftmaxCrossEntropy(nil, lp, labels)
			return l
		}
		numeric := (probe(eps) - probe(-eps)) / (2 * eps)
		if math.Abs(numeric-float64(grad.Data()[i])) > 1e-3 {
			t.Fatalf("CE grad[%d]: analytic %v numeric %v", i, grad.Data()[i], numeric)
		}
	}
}

func TestSoftmaxCrossEntropyPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoftmaxCrossEntropy(nil, tensor.New(1, 3), []int{5})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 5, 0,
		9, 0, 0,
		0, 0, 2,
	}, 3, 3)
	if got := Accuracy(logits, []int{1, 0, 2}); got != 1 {
		t.Fatalf("Accuracy = %v, want 1", got)
	}
	if got := Accuracy(logits, []int{0, 0, 2}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy = %v, want 2/3", got)
	}
}
