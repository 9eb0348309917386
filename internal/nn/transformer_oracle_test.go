package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

// The loops SoftmaxLastDim and GELU.Backward replaced evaluated the
// exponential and the tanh a second time where the kernels now reuse the
// first evaluation. They stay here as oracles, on the same tensor.ExpInto
// and tensor.TanhInto the layers call: reuse, in-place evaluation and
// recycled memory must not move one bit. What those kernels are worth
// against libm is transcend_test.go's business; here a second assertion
// bounds the layers built on them against the float64 libm formulas they
// used to evaluate.

func exp1(x float32) float32 {
	v := []float32{x}
	tensor.ExpInto(v, v)
	return v[0]
}

func tanh1(x float32) float32 {
	v := []float32{x}
	tensor.TanhInto(v, v)
	return v[0]
}

// softmaxTwoPass is the former SoftmaxLastDim: the exponential, exp,
// evaluated once for the row sum and again for the output, one element at
// a time; the results are left unrounded.
func softmaxTwoPass(x *tensor.Tensor, exp func(float32) float64) []float64 {
	shape := x.Shape()
	d := shape[len(shape)-1]
	xd := x.Data()
	out := make([]float64, len(xd))
	for r := 0; r < len(xd); r += d {
		row := xd[r : r+d]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += exp(v - maxv)
		}
		inv := 1 / sum
		for j, v := range row {
			out[r+j] = exp(v-maxv) * inv
		}
	}
	return out
}

// softmaxOracle is the two-pass loop on the kernel's exponential, rounded
// as SoftmaxLastDim rounds: the bits it must produce.
func softmaxOracle(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	for i, v := range softmaxTwoPass(x, func(v float32) float64 { return float64(exp1(v)) }) {
		out.Data()[i] = float32(v)
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

// within reports the first element of got further than tol(i) from want;
// a NaN is matched only by a NaN.
func within(got []float32, want []float64, tol func(i int) float64) string {
	for i, w := range want {
		g := float64(got[i])
		if math.IsNaN(w) || math.IsNaN(g) {
			if math.IsNaN(w) != math.IsNaN(g) {
				return fmt.Sprintf("element %d: got %v, libm %v", i, g, w)
			}
			continue
		}
		if g != w && !(math.Abs(g-w) <= tol(i)) {
			return fmt.Sprintf("element %d: got %v, libm %v (off by %.3g)", i, g, w, math.Abs(g-w))
		}
	}
	return ""
}

func TestSoftmaxMatchesTwoPassOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	cases := map[string]*tensor.Tensor{
		"random":   tensor.Rand(rng, -4, 4, 3, 5, 32),
		"wide":     tensor.Rand(rng, -30, 30, 2, 300),
		"single":   tensor.Rand(rng, -1, 1, 7, 1),
		"constant": tensor.Full(2.5, 2, 9),
		// The second row's e⁻⁸⁸ terms are 6.05e-39, below the smallest
		// normal float32: ExpInto flushes them to zero where libm gave
		// denormals.
		"huge":        tensor.FromSlice([]float32{3e38, -3e38, 3e38, 0, 1e-38, -1e-38, 88, -104}, 2, 4),
		"underflow":   tensor.FromSlice([]float32{0, -200, -745, -800, -1e4, -3e38}, 1, 6),
		"infinities":  tensor.FromSlice([]float32{-inf, 0, 1, -inf, inf, 1, 2, 3}, 2, 4),
		"nan":         tensor.FromSlice([]float32{nan, 0, 1, 2, 0, nan, 1, 2}, 2, 4),
		"signed zero": tensor.FromSlice([]float32{0, float32(math.Copysign(0, -1)), 0}, 1, 3),
	}
	for name, x := range cases {
		got := SoftmaxLastDim(nil, x)
		if want := softmaxOracle(x); !sameBits(got, want) {
			t.Errorf("%s: one-exp softmax %v differs from the two-pass loop %v", name, got, want)
		}
		// Against the float64 math.Exp the package evaluated before: two
		// exponentials of at most 1 ULP each and the output's own
		// rounding, 2.5e-7 relative; a flushed term is below 2⁻¹²⁶.
		libm := softmaxTwoPass(x, func(v float32) float64 { return math.Exp(float64(v)) })
		if diff := within(got.Data(), libm, func(i int) float64 { return 2.5e-7*libm[i] + 0x1p-126 }); diff != "" {
			t.Errorf("%s: against the float64 libm softmax: %s", name, diff)
		}
	}
	if got := SoftmaxLastDim(nil, cases["huge"]).Data()[4]; got != 0 {
		t.Errorf("e⁻⁸⁸ under a row maximum of 88 = %g, want it flushed to 0", got)
	}
	// Recycled, dirty output memory changes nothing: every element is
	// written.
	ar := tensor.NewArena()
	x := cases["random"]
	ar.Get(x.Shape()...)
	ar.Reset()
	ar.Poison()
	if got := SoftmaxLastDim(ar, x); !sameBits(got, softmaxOracle(x)) {
		t.Error("softmax into a poisoned arena buffer differs from the two-pass loop")
	}
}

// geluCase is the input both GELU tests share: a spread of ordinary
// values with every special up front.
func geluCase() (x, grad *tensor.Tensor) {
	rng := rand.New(rand.NewSource(12))
	x = tensor.Rand(rng, -6, 6, 4, 50)
	copy(x.Data(), []float32{0, float32(math.Copysign(0, -1)), 1e-30, -1e-30, 40, -40, 3e38, -3e38,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())})
	return x, tensor.Rand(rng, -2, 2, 4, 50)
}

// TestGELUBackwardMatchesRecomputingOracle: the backward pass reads the
// tanh the training forward stored instead of evaluating it again, and
// the eval forward evaluates it in place in its output.
func TestGELUBackwardMatchesRecomputingOracle(t *testing.T) {
	x, grad := geluCase()
	u := func(v float32) float32 {
		return float32(geluC * (v + float32(geluA*float32(float32(v*v)*v))))
	}
	wantOut, want := tensor.New(x.Shape()...), tensor.New(x.Shape()...)
	for i, v := range x.Data() {
		t := tanh1(u(v))
		wantOut.Data()[i] = float32(float32(0.5*v) * (1 + t))
		w := float32(v * (1 - float32(t*t)))
		w += float32(3 * geluA * float32(float32(w*v)*v))
		want.Data()[i] = float32(grad.Data()[i] * (float32(0.5*(1+t)) + float32(0.5*geluC*w)))
	}

	ar := tensor.NewArena()
	ar.Get(x.Shape()...)
	ar.Reset()
	ar.Poison()
	g := NewGELU()
	ApplyArena(g, ar)
	if !sameBits(g.Forward(x, false), wantOut) {
		t.Error("eval GELU.Forward (tanh in place, poisoned arena) differs from the element-wise loop")
	}
	if !sameBits(g.Forward(x, true), wantOut) {
		t.Error("training GELU.Forward differs from the element-wise loop")
	}
	if !sameBits(g.Backward(grad), want) {
		t.Fatal("GELU.Backward with the cached tanh differs from recomputing it")
	}
}

// TestGELUAgainstLibm bounds the float32 activation and its derivative
// against the float64 math.Tanh formulas. The tolerance is absolute, in
// units of max(1, |x|): 1 + tanh cancels for negative inputs, where a
// float32 tanh resolves 2⁻²⁴ and the float64 one resolved 2⁻⁵³. Over
// 400,000 uniform inputs in [−8, 8] the worst forward deviation measured
// 1.05e-7 and the worst backward one (|grad| ≤ 2) 2.9e-7 of that unit.
func TestGELUAgainstLibm(t *testing.T) {
	x, grad := geluCase()
	g := NewGELU()
	out := g.Forward(x, true)
	dx := g.Backward(grad)
	n := x.Numel()
	wantOut, wantDx, scale := make([]float64, n), make([]float64, n), make([]float64, n)
	const c, a = 0.7978845608028654, 0.044715
	for i, v := range x.Data() {
		fv := float64(v)
		th := math.Tanh(c * (fv + a*fv*fv*fv))
		wantOut[i] = 0.5 * fv * (1 + th)
		wantDx[i] = float64(grad.Data()[i]) * (0.5*(1+th) + 0.5*fv*(1-th*th)*c*(1+3*a*fv*fv))
		// Past |x| = 20 both tanhs are ±1 and the results exact, x² about
		// to overflow float32 or not.
		if math.Abs(fv) < 20 {
			scale[i] = math.Max(1, math.Abs(fv))
		}
	}
	if diff := within(out.Data(), wantOut, func(i int) float64 { return 2e-7 * scale[i] }); diff != "" {
		t.Errorf("forward: %s", diff)
	}
	if diff := within(dx.Data(), wantDx, func(i int) float64 { return 6e-7 * scale[i] }); diff != "" {
		t.Errorf("backward: %s", diff)
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
	build := func() *Residual { return packed(NewResidual(NewLinear(rand.New(rand.NewSource(13)), 6, 6, true))) }
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
