package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
	"pipebd/internal/testutil"
)

// The loops the transformer's row kernels replaced, kept as their oracle:
// LayerNorm's forward and backward rows, the softmax and its backward
// with attention's 1/√dₕ as a backend Scale pass of its own on each side,
// GELU's elementwise loops and Linear's bias add and bias-gradient sums,
// each as the layer ran it before tensor.LayerNormInto, SoftmaxInto,
// GELUInto, AddRowBias and AddColumnSums.

// SoftmaxLastDim and SoftmaxBackwardLastDim are the softmax over the
// last dimension and its backward at scale 1, tensor.SoftmaxInto and
// tensor.SoftmaxBackwardInto on arena memory, as the gradient checks and
// the softmax oracles call them. The package's own softmax is attention's,
// with 1/√dₕ folded in.
func SoftmaxLastDim(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	shape := x.Shape()
	out := ar.Get(shape...)
	tensor.SoftmaxInto(out.Data(), x.Data(), shape[len(shape)-1], 1)
	return out
}

func SoftmaxBackwardLastDim(ar *tensor.Arena, probs, grad *tensor.Tensor) *tensor.Tensor {
	shape := probs.Shape()
	out := ar.Get(shape...)
	tensor.SoftmaxBackwardInto(out.Data(), probs.Data(), grad.Data(), shape[len(shape)-1], 1)
	return out
}

// GELU's constants, as the oracle loops (and the GELU oracles in
// transformer_oracle_test.go) spell them.
const (
	geluC float32 = 0.7978845608028654 // √(2/π)
	geluA float32 = 0.044715
)

// oracleLinear is a Linear whose bias add and bias-gradient sums are the
// loops it had; its GEMMs are the layer's own.
type oracleLinear struct {
	*Linear
	x *tensor.Tensor
}

func (l *oracleLinear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Shape()[0]
	out := tensor.New(n, l.Out)
	backendOr(l.be).MatMulTBInto(out, x, l.Weight.Value)
	if l.Bias != nil {
		od, bd := out.Data(), l.Bias.Value.Data()
		for i := 0; i < n; i++ {
			row := od[i*l.Out : (i+1)*l.Out]
			for j := range row {
				row[j] += bd[j]
			}
		}
	}
	if train {
		l.x = x
	}
	return out
}

func (l *oracleLinear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	be, n := backendOr(l.be), grad.Shape()[0]
	dW := tensor.New(l.Out, l.In)
	be.MatMulTAInto(dW, grad, l.x)
	be.Axpy(l.Weight.Grad, 1, dW)
	if l.Bias != nil {
		gd, bd := grad.Data(), l.Bias.Grad.Data()
		for i := 0; i < n; i++ {
			row := gd[i*l.Out : (i+1)*l.Out]
			for j, v := range row {
				bd[j] += v
			}
		}
	}
	dx := tensor.New(n, l.In)
	be.MatMulInto(dx, grad, l.Weight.Value)
	return dx
}

// oracleLN is a LayerNorm with the row loops it had.
type oracleLN struct {
	*LayerNorm
	xhat   []float32
	invStd []float64
}

func (l *oracleLN) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	d := l.Dim
	rows := x.Numel() / d
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := l.Gain.Value.Data(), l.Bias.Value.Data()
	if train {
		l.xhat, l.invStd = make([]float32, len(xd)), make([]float64, rows)
	}
	for r := 0; r < rows; r++ {
		row := xd[r*d : (r+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var variance float64
		for _, v := range row {
			dv := float64(v) - mean
			variance += dv * dv
		}
		variance /= float64(d)
		s := 1 / math.Sqrt(variance+l.Eps)
		orow := od[r*d : (r+1)*d]
		for j, v := range row {
			xh := (float64(v) - mean) * s
			orow[j] = float32(xh*float64(gd[j]) + float64(bd[j]))
			if train {
				l.xhat[r*d+j] = float32(xh)
			}
		}
		if train {
			l.invStd[r] = s
		}
	}
	return out
}

func (l *oracleLN) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gd, xhat := grad.Data(), l.xhat
	d := l.Dim
	rows := len(gd) / d
	out := tensor.New(grad.Shape()...)
	od := out.Data()
	gaind := l.Gain.Value.Data()
	dGain, dBias := l.Gain.Grad.Data(), l.Bias.Grad.Data()
	for r := 0; r < rows; r++ {
		grow := gd[r*d : (r+1)*d]
		xrow := xhat[r*d : (r+1)*d]
		var meanDxhat, meanDxhatXhat float64
		for j, g := range grow {
			dxh := float64(g) * float64(gaind[j])
			meanDxhat += dxh
			meanDxhatXhat += dxh * float64(xrow[j])
			dGain[j] += float32(float64(g) * float64(xrow[j]))
			dBias[j] += g
		}
		meanDxhat /= float64(d)
		meanDxhatXhat /= float64(d)
		s := l.invStd[r]
		orow := od[r*d : (r+1)*d]
		for j, g := range grow {
			dxh := float64(g) * float64(gaind[j])
			orow[j] = float32(s * (dxh - meanDxhat - float64(xrow[j])*meanDxhatXhat))
		}
	}
	return out
}

// oracleSoftmax is the softmax row loop, one ExpInto call per row.
func oracleSoftmax(x *tensor.Tensor) *tensor.Tensor {
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
		for j, v := range row {
			orow[j] = v - maxv
		}
		tensor.ExpInto(orow, orow)
		var sum float64
		for _, e := range orow {
			sum += float64(e)
		}
		inv := 1 / sum
		for j, e := range orow {
			orow[j] = float32(float64(e) * inv)
		}
	}
	return out
}

// oracleSoftmaxBackward is the softmax's backward row loop.
func oracleSoftmaxBackward(probs, grad *tensor.Tensor) *tensor.Tensor {
	d := probs.Shape()[len(probs.Shape())-1]
	out := tensor.New(probs.Shape()...)
	pd, gd, od := probs.Data(), grad.Data(), out.Data()
	for r := 0; r < len(pd); r += d {
		prow, grow, orow := pd[r:r+d], gd[r:r+d], od[r:r+d]
		var dot float64
		for j, p := range prow {
			dot += float64(grow[j]) * float64(p)
		}
		for j, p := range prow {
			orow[j] = float32(float64(p) * (float64(grow[j]) - dot))
		}
	}
	return out
}

// oracleMHA is attention with the scores scaled by a Scale pass of their
// own before the oracle softmax, and the scores' gradient after its
// backward.
type oracleMHA struct {
	*MultiHeadAttention
	wq, wk, wv, wo *oracleLinear
	qh, kh, vh     *tensor.Tensor
	probs          *tensor.Tensor
}

func newOracleMHA(a *MultiHeadAttention) *oracleMHA {
	return &oracleMHA{MultiHeadAttention: a,
		wq: &oracleLinear{Linear: a.Wq}, wk: &oracleLinear{Linear: a.Wk},
		wv: &oracleLinear{Linear: a.Wv}, wo: &oracleLinear{Linear: a.Wo}}
}

func (a *oracleMHA) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	n, l, g, dh := shape[0], shape[1], shape[0]*a.Heads, a.Dim/a.Heads
	be := backendOr(a.be)
	x2 := x.Reshape(n*l, a.Dim)
	qh := splitHeads(nil, a.wq.Forward(x2, train), n, l, a.Heads)
	kh := splitHeads(nil, a.wk.Forward(x2, train), n, l, a.Heads)
	vh := splitHeads(nil, a.wv.Forward(x2, train), n, l, a.Heads)
	scores := tensor.New(g, l, l)
	be.MatMulTBBatchInto(scores, qh, kh)
	be.Scale(scores, scores, float32(1/math.Sqrt(float64(dh))))
	probs := oracleSoftmax(scores)
	ctx := tensor.New(g, l, dh)
	be.MatMulBatchInto(ctx, probs, vh)
	out := a.wo.Forward(mergeHeads(nil, ctx, n, l, a.Heads), train)
	if train {
		a.qh, a.kh, a.vh, a.probs = qh, kh, vh, probs
		a.lastN, a.lastL = n, l
	}
	return out.Reshape(n, l, a.Dim)
}

func (a *oracleMHA) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, l, g, dh := a.lastN, a.lastL, a.lastN*a.Heads, a.Dim/a.Heads
	be := backendOr(a.be)
	dCtx := splitHeads(nil, a.wo.Backward(grad.Reshape(n*l, a.Dim)), n, l, a.Heads)
	dProbs, dV := tensor.New(g, l, l), tensor.New(g, l, dh)
	be.MatMulTBBatchInto(dProbs, dCtx, a.vh)
	be.MatMulTABatchInto(dV, a.probs, dCtx)
	dScores := oracleSoftmaxBackward(a.probs, dProbs)
	be.Scale(dScores, dScores, float32(1/math.Sqrt(float64(dh))))
	dQ, dK := tensor.New(g, l, dh), tensor.New(g, l, dh)
	be.MatMulBatchInto(dQ, dScores, a.kh)
	be.MatMulTABatchInto(dK, dScores, a.qh)
	dx := a.wq.Backward(mergeHeads(nil, dQ, n, l, a.Heads))
	be.Add(dx, dx, a.wk.Backward(mergeHeads(nil, dK, n, l, a.Heads)))
	be.Add(dx, dx, a.wv.Backward(mergeHeads(nil, dV, n, l, a.Heads)))
	return dx.Reshape(n, l, a.Dim)
}

// oracleGELU is GELU with the elementwise loops it had.
type oracleGELU struct {
	lastX, tanh []float32
}

func (g *oracleGELU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	th := od
	if train {
		g.lastX = append([]float32(nil), xd...)
		g.tanh = make([]float32, len(xd))
		th = g.tanh
	}
	for i, v := range xd {
		v3 := float32(float32(v*v) * v)
		od[i] = float32(geluC * (v + float32(geluA*v3)))
	}
	tensor.TanhInto(th, od)
	for i, v := range xd {
		od[i] = float32(float32(0.5*v) * (1 + th[i]))
	}
	return out
}

func (g *oracleGELU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	gd := grad.Data()
	out := tensor.New(grad.Shape()...)
	od := out.Data()
	for i, v := range g.lastX {
		t := g.tanh[i]
		w := float32(v * (1 - float32(t*t)))
		w += float32(3 * geluA * float32(float32(w*v)*v))
		od[i] = float32(gd[i] * (float32(0.5*(1+t)) + float32(0.5*geluC*w)))
	}
	return out
}

func (g *oracleGELU) Params() []*Param { return nil }

// oracleFF is the MLP on the oracle Linear and GELU.
type oracleFF struct {
	*FeedForward
	w1, w2 *oracleLinear
	act    *oracleGELU
}

func (f *oracleFF) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	h := f.w1.Forward(x.Reshape(shape[0]*shape[1], f.Dim), train)
	h = f.act.Forward(h, train)
	return f.w2.Forward(h, train).Reshape(shape[0], shape[1], f.Dim)
}

func (f *oracleFF) Backward(grad *tensor.Tensor) *tensor.Tensor {
	shape := grad.Shape()
	g := f.w2.Backward(grad.Reshape(shape[0]*shape[1], f.Dim))
	g = f.act.Backward(g)
	return f.w1.Backward(g).Reshape(shape[0], shape[1], f.Dim)
}

// rowsSpecials are the values the row-kernel oracles salt their tensors
// with: signed zeros, NaNs of four payloads and both signs, infinities,
// denormals, and values whose products overflow float32.
var rowsSpecials = []float32{0, float32(math.Copysign(0, -1)),
	math.Float32frombits(0x7fc0beef), math.Float32frombits(0xffc01234),
	math.Float32frombits(0x7fa5a5a5), math.Float32frombits(0xff800001),
	float32(math.Inf(1)), float32(math.Inf(-1)), 1e-45, -3e-39, 3e38, -1e30}

// rowsWide are finite values far above the ordinary ones. A wide mix
// writes each with its negation into one row, so that row's float64 sums
// cancel after absorbing the terms around them: a chain summed in another
// order moves the result by far more than a float32 ulp.
var rowsWide = []float32{1e20, 1 << 40, 3e7}

// saltMix is what a case salts its tensors with: n values of values per
// parameter tensor, three times as many in the input and the gradient;
// pairs writes each value with its negation into one row.
type saltMix struct {
	name   string
	values []float32
	n      int
	pairs  bool
}

var saltMixes = []saltMix{
	{"ordinary", nil, 0, false},
	{"specials", rowsSpecials, 2, false},
	{"wide", rowsWide, 2, true},
}

// salt writes n of m's values into t at positions drawn from rng.
func (m saltMix) salt(rng *rand.Rand, t *tensor.Tensor, n int) *tensor.Tensor {
	d := t.Data()
	row := t.Shape()[len(t.Shape())-1]
	for i := 0; i < n; i++ {
		at, v := rng.Intn(len(d)), m.values[rng.Intn(len(m.values))]
		d[at] = v
		if m.pairs && row > 1 {
			start := at - at%row
			d[start+(at-start+1+rng.Intn(row-1))%row] = -v
		}
	}
	return t
}

// rowsDiff is bitsDiff, NaN payloads included, except under the race
// detector, whose build compiles the oracle loops with other operand
// roles (testutil.Race): there a NaN matches any NaN.
func rowsDiff(got, want *tensor.Tensor) string {
	diff := bitsDiff(got, want)
	if diff == "" || !testutil.Race || !got.SameShape(want) {
		return diff
	}
	gd, wd := got.Data(), want.Data()
	for i, w := range wd {
		if g := gd[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return fmt.Sprintf("element %d: got %v (%#08x), want %v (%#08x)", i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
	return ""
}

// encoderKit builds one encoder layer — attention and MLP residuals,
// each followed by a LayerNorm — on the package's kernels or on the
// oracle loops, bit-identical parameters from one seed: Xavier weights,
// ordinary gains and biases, and with specials, a few of them in every
// parameter tensor.
func encoderKit(seed int64, dim, heads, ff int, mix saltMix, oracle bool) Layer {
	rng := rand.New(rand.NewSource(seed))
	mha := NewMultiHeadAttention(rng, dim, heads)
	ln1, ln2 := NewLayerNorm(dim), NewLayerNorm(dim)
	mlp := NewFeedForward(rng, dim, ff)
	for _, ln := range []*LayerNorm{ln1, ln2} {
		ln.Gain.Value.CopyFrom(tensor.Rand(rng, 0.5, 1.5, dim))
		ln.Bias.Value.CopyFrom(tensor.Rand(rng, -0.5, 0.5, dim))
	}
	for _, l := range []*Linear{mha.Wq, mha.Wk, mha.Wv, mha.Wo, mlp.W1, mlp.W2} {
		l.Bias.Value.CopyFrom(tensor.Rand(rng, -0.2, 0.2, l.Out))
	}
	for _, p := range append(append(mha.Params(), mlp.Params()...), ln1.Gain, ln1.Bias, ln2.Gain, ln2.Bias) {
		mix.salt(rng, p.Value, mix.n)
	}
	if !oracle {
		return packed(NewSequential(NewResidual(mha), ln1, NewResidual(mlp), ln2))
	}
	ff1 := &oracleFF{FeedForward: mlp, w1: &oracleLinear{Linear: mlp.W1}, w2: &oracleLinear{Linear: mlp.W2}, act: &oracleGELU{}}
	return packed(NewSequential(NewResidual(newOracleMHA(mha)), &oracleLN{LayerNorm: ln1}, NewResidual(ff1), &oracleLN{LayerNorm: ln2}))
}

// TestTransformerRowsMatchUnfusedBits runs an encoder layer on the row
// kernels and on the loops they replaced, on every kernel tier the host
// has: a training step (forward, backward) and then an evaluation forward.
// The geometries give LayerNorm, softmax and Linear rows of 32, 64 and
// 256 floats and every ragged length 1–17, at row counts that are not a
// multiple of the lanes' group of four; each runs on ordinary values,
// again with specials — NaN payloads, ±Inf, ±0, denormals, float32
// overflow — and again with wide values, whose row sums cancel, in the
// input, the gradient and every parameter. Outputs,
// dx, every parameter gradient and the attention's probabilities must
// match bit for bit, NaN payloads included; so must a lone LayerNorm's
// and a lone Linear's.
func TestTransformerRowsMatchUnfusedBits(t *testing.T) {
	defer func(prev uint8) { tensorTier = prev }(tensorTier)
	host := tensorTier
	type geom struct{ n, l, dim, heads, ff int }
	geoms := []geom{{2, 32, 64, 4, 256}, {1, 32, 32, 2, 64}}
	for d := 1; d <= 17; d++ {
		geoms = append(geoms, geom{3, 1 + (d*7)%17, d, 1, 1 + (d*5)%17})
	}
	for tier := uint8(0); tier <= host; tier++ {
		tensorTier = tier
		for gi, g := range geoms {
			for mi, mix := range saltMixes {
				label := fmt.Sprintf("%+v %s tier=%d", g, mix.name, tier)
				seed := int64(300 + 10*gi + mi)
				got := encoderKit(seed, g.dim, g.heads, g.ff, mix, false)
				want := encoderKit(seed, g.dim, g.heads, g.ff, mix, true)
				rng := rand.New(rand.NewSource(seed + 1))
				x := mix.salt(rng, tensor.Rand(rng, -2, 2, g.n, g.l, g.dim), 3*mix.n)
				if diff := rowsDiff(got.Forward(x, true), want.Forward(x, true)); diff != "" {
					t.Fatalf("%s: training forward: %s", label, diff)
				}
				gp := got.(*Sequential).Layers[0].(*Residual).Body.(*MultiHeadAttention).probs
				wp := want.(*Sequential).Layers[0].(*Residual).Body.(*oracleMHA).probs
				if diff := rowsDiff(gp, wp); diff != "" {
					t.Fatalf("%s: attention probabilities: %s", label, diff)
				}
				grad := mix.salt(rng, tensor.Rand(rng, -1, 1, g.n, g.l, g.dim), 3*mix.n)
				if diff := rowsDiff(got.Backward(grad), want.Backward(grad)); diff != "" {
					t.Fatalf("%s: dx: %s", label, diff)
				}
				gps, wps := got.Params(), want.Params()
				for i := range gps {
					if diff := rowsDiff(gps[i].Grad, wps[i].Grad); diff != "" {
						t.Fatalf("%s: %s gradient (parameter %d): %s", label, gps[i].Name, i, diff)
					}
				}
				if diff := rowsDiff(got.Forward(x, false), want.Forward(x, false)); diff != "" {
					t.Fatalf("%s: evaluation forward: %s", label, diff)
				}
			}
		}
		for _, s := range []struct{ n, l, dim int }{{16, 32, 64}, {3, 5, 17}, {1, 9, 13}, {2, 7, 1}} {
			for mi, mix := range saltMixes {
				label := fmt.Sprintf("LayerNorm %+v %s tier=%d", s, mix.name, tier)
				rng := rand.New(rand.NewSource(int64(400 + s.dim + mi)))
				got, ref := packed(NewLayerNorm(s.dim)), packed(NewLayerNorm(s.dim))
				for _, p := range []*Param{got.Gain, got.Bias} {
					p.Value.CopyFrom(mix.salt(rng, tensor.Rand(rng, -1.5, 1.5, s.dim), mix.n))
				}
				ref.Gain.Value.CopyFrom(got.Gain.Value)
				ref.Bias.Value.CopyFrom(got.Bias.Value)
				want := &oracleLN{LayerNorm: ref}
				x := mix.salt(rng, tensor.Rand(rng, -2, 2, s.n, s.l, s.dim), 3*s.n*mix.n)
				if diff := rowsDiff(got.Forward(x, true), want.Forward(x, true)); diff != "" {
					t.Fatalf("%s: training forward: %s", label, diff)
				}
				grad := mix.salt(rng, tensor.Rand(rng, -1, 1, s.n, s.l, s.dim), 3*s.n*mix.n)
				if diff := rowsDiff(got.Backward(grad), want.Backward(grad)); diff != "" {
					t.Fatalf("%s: dx: %s", label, diff)
				}
				if diff := rowsDiff(got.Gain.Grad, ref.Gain.Grad); diff != "" {
					t.Fatalf("%s: gain gradient: %s", label, diff)
				}
				if diff := rowsDiff(got.Bias.Grad, ref.Bias.Grad); diff != "" {
					t.Fatalf("%s: bias gradient: %s", label, diff)
				}
				if diff := rowsDiff(got.Forward(x, false), want.Forward(x, false)); diff != "" {
					t.Fatalf("%s: evaluation forward: %s", label, diff)
				}
			}
		}
		for _, s := range []struct{ n, in, out int }{{512, 64, 256}, {13, 9, 17}, {5, 3, 1}, {7, 16, 8}} {
			for mi, mix := range saltMixes {
				label := fmt.Sprintf("Linear %+v %s tier=%d", s, mix.name, tier)
				seed := int64(s.n + s.out + mi)
				got, ref := packed(NewLinear(rand.New(rand.NewSource(seed)), s.in, s.out, true)), packed(NewLinear(rand.New(rand.NewSource(seed)), s.in, s.out, true))
				rng := rand.New(rand.NewSource(seed + 1))
				b := mix.salt(rng, tensor.Rand(rng, -1, 1, s.out), mix.n)
				got.Bias.Value.CopyFrom(b)
				ref.Bias.Value.CopyFrom(b)
				want := &oracleLinear{Linear: ref}
				x := mix.salt(rng, tensor.Rand(rng, -1, 1, s.n, s.in), 3*mix.n)
				if diff := rowsDiff(got.Forward(x, true), want.Forward(x, true)); diff != "" {
					t.Fatalf("%s: forward: %s", label, diff)
				}
				grad := mix.salt(rng, tensor.Rand(rng, -1, 1, s.n, s.out), 3*mix.n)
				if diff := rowsDiff(got.Backward(grad), want.Backward(grad)); diff != "" {
					t.Fatalf("%s: dx: %s", label, diff)
				}
				if diff := rowsDiff(got.Weight.Grad, ref.Weight.Grad); diff != "" {
					t.Fatalf("%s: weight gradient: %s", label, diff)
				}
				if diff := rowsDiff(got.Bias.Grad, ref.Bias.Grad); diff != "" {
					t.Fatalf("%s: bias gradient: %s", label, diff)
				}
			}
		}
	}
}
