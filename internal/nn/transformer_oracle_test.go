package nn

import (
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

// The loops SoftmaxLastDim and GELU.Backward replaced evaluated math.Exp
// and math.Tanh a second time where the kernels now reuse the first
// evaluation. They stay here as oracles: reuse must not move one bit.

// softmaxTwoPass is the former SoftmaxLastDim: exponentials evaluated
// once for the row sum and again for the output.
func softmaxTwoPass(x *tensor.Tensor) *tensor.Tensor {
	shape := x.Shape()
	d := shape[len(shape)-1]
	out := tensor.New(shape...)
	xd, od := x.Data(), out.Data()
	for r := 0; r < len(xd); r += d {
		row, orow := xd[r:r+d], od[r:r+d]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		inv := 1 / sum
		for j, v := range row {
			orow[j] = float32(math.Exp(float64(v-maxv)) * inv)
		}
	}
	return out
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

func TestSoftmaxMatchesTwoPassOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	cases := map[string]*tensor.Tensor{
		"random":      tensor.Rand(rng, -4, 4, 3, 5, 32),
		"wide":        tensor.Rand(rng, -30, 30, 2, 300),
		"single":      tensor.Rand(rng, -1, 1, 7, 1),
		"constant":    tensor.Full(2.5, 2, 9),
		"huge":        tensor.FromSlice([]float32{3e38, -3e38, 3e38, 0, 1e-38, -1e-38, 88, -104}, 2, 4),
		"underflow":   tensor.FromSlice([]float32{0, -200, -745, -800, -1e4, -3e38}, 1, 6),
		"infinities":  tensor.FromSlice([]float32{-inf, 0, 1, -inf, inf, 1, 2, 3}, 2, 4),
		"nan":         tensor.FromSlice([]float32{nan, 0, 1, 2, 0, nan, 1, 2}, 2, 4),
		"signed zero": tensor.FromSlice([]float32{0, float32(math.Copysign(0, -1)), 0}, 1, 3),
	}
	for name, x := range cases {
		if got, want := SoftmaxLastDim(nil, x), softmaxTwoPass(x); !sameBits(got, want) {
			t.Errorf("%s: one-exp softmax %v differs from the two-pass loop %v", name, got, want)
		}
	}
	// Recycled, dirty output memory changes nothing: every element is
	// written.
	ar := tensor.NewArena()
	x := cases["random"]
	ar.Get(x.Shape()...)
	ar.Reset()
	ar.Poison()
	if got := SoftmaxLastDim(ar, x); !sameBits(got, softmaxTwoPass(x)) {
		t.Error("softmax into a poisoned arena buffer differs from the two-pass loop")
	}
}

// TestGELUBackwardMatchesRecomputingOracle: the backward pass now reads
// the tanh the training forward stored instead of evaluating it again.
func TestGELUBackwardMatchesRecomputingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.Rand(rng, -6, 6, 4, 50)
	copy(x.Data(), []float32{0, float32(math.Copysign(0, -1)), 1e-30, -1e-30, 40, -40, 3e38, -3e38,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())})
	grad := tensor.Rand(rng, -2, 2, 4, 50)

	g := NewGELU()
	g.Forward(x, true)
	got := g.Backward(grad)

	want := tensor.New(x.Shape()...)
	for i, v := range x.Data() {
		fv := float64(v)
		t := math.Tanh(geluC * (fv + geluA*fv*fv*fv))
		du := geluC * (1 + 3*geluA*fv*fv)
		d := 0.5*(1+t) + 0.5*fv*(1-t*t)*du
		want.Data()[i] = float32(float64(grad.Data()[i]) * d)
	}
	if !sameBits(got, want) {
		t.Fatal("GELU.Backward with the cached tanh differs from recomputing it")
	}
}

// addCounter is the default backend with its Add calls counted.
type addCounter struct {
	tensor.Backend
	adds int
}

func (c *addCounter) Add(dst, a, b *tensor.Tensor) {
	c.adds++
	c.Backend.Add(dst, a, b)
}

// TestResidualUsesConfiguredBackend: the skip additions used to run on
// the process default whatever ApplyBackend had set, so a configured
// backend (and anything timing it) never saw them.
func TestResidualUsesConfiguredBackend(t *testing.T) {
	build := func() *Residual { return NewResidual(NewLinear(rand.New(rand.NewSource(13)), 6, 6, true)) }
	ref, res := build(), build()
	be := &addCounter{Backend: tensor.Default()}
	ApplyBackend(res, be)

	rng := rand.New(rand.NewSource(14))
	x, grad := tensor.Rand(rng, -1, 1, 3, 6), tensor.Rand(rng, -1, 1, 3, 6)
	if !sameBits(res.Forward(x, true), ref.Forward(x, true)) || !sameBits(res.Backward(grad), ref.Backward(grad)) {
		t.Fatal("a Residual on an explicit backend differs from one on the default")
	}
	if be.adds != 2 {
		t.Fatalf("the configured backend saw %d of the 2 residual additions", be.adds)
	}
}
