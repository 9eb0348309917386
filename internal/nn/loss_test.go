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

// TestKLDivLossDoesNotAllocate: with the gradient taken from an arena,
// the transformer's last-block loss allocates nothing per call.
func TestKLDivLossDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	student, teacher := tensor.Rand(rng, -3, 3, 16, 8), tensor.Rand(rng, -3, 3, 16, 8)
	ar := tensor.NewArena()
	call := func() {
		ar.Reset()
		KLDivLoss(ar, student, teacher, 2)
	}
	call()
	if got := testing.AllocsPerRun(20, call); got != 0 {
		t.Fatalf("KLDivLoss allocates %v times per call, want 0", got)
	}
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
