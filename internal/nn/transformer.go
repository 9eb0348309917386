package nn

import (
	"fmt"
	"math"
	"math/rand"

	"pipebd/internal/tensor"
)

// Transformer building blocks. Hidden states flow between layers (and
// between pipeline blocks) as [N, L, D] tensors — batch outermost, so the
// engine's batch sharding and the wire codec treat them exactly like conv
// activations. Token ids enter as [N, L] float32 tensors holding integer
// values, which keeps the dataset, wire, and engine paths type-free.
//
// Every layer follows the package's tape-free cache discipline, with the
// guard introduced alongside the ReLU stale-mask fix: an eval-mode
// Forward invalidates the training cache, and Backward validates the
// cached sizes against the incoming gradient before touching them.

// --- GELU --------------------------------------------------------------------

// GELU is the tanh-approximated Gaussian error linear unit:
// 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))), tensor.GELUInto: evaluated
// in float32 with every product rounded on its own and the tanh by
// tensor.TanhInto, so its bits are the same on every architecture.
type GELU struct {
	stepMem
	lastX *tensor.Tensor // cached pre-activation; nil when no training forward is cached
	tanh  *tensor.Tensor // the forward's tanh per element, same lifetime
}

// NewGELU returns a GELU activation.
func NewGELU() *GELU { return &GELU{} }

// Forward applies the activation elementwise.
func (g *GELU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := g.ar.Get(x.Shape()...)
	xd, od := x.Data(), out.Data()
	// The tanh lands in the training cache, or in the output itself when
	// there is no backward to keep it for.
	th := od
	g.lastX = nil
	if train {
		g.lastX = g.ar.Get(x.Shape()...)
		copy(g.lastX.Data(), xd)
		g.tanh = g.ar.Get(x.Shape()...)
		th = g.tanh.Data()
		g.cached()
	}
	tensor.GELUInto(od, th, xd)
	return out
}

// Backward multiplies by the activation derivative at the cached input
// (tensor.GELUBackwardInto, on the tanh the forward kept).
func (g *GELU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if g.lastX == nil {
		panic("nn: GELU.Backward called before Forward(train=true)")
	}
	g.checkCache("GELU")
	gd, xd := grad.Data(), g.lastX.Data()
	if len(xd) != len(gd) {
		panic(fmt.Sprintf("nn: GELU.Backward grad has %d elements but cache has %d (stale forward?)", len(gd), len(xd)))
	}
	out := g.ar.Get(grad.Shape()...)
	tensor.GELUBackwardInto(out.Data(), gd, xd, g.tanh.Data())
	return out
}

// Params returns nil; GELU has no trainable parameters.
func (g *GELU) Params() []*Param { return nil }

// --- LayerNorm ---------------------------------------------------------------

// LayerNorm normalizes over the last dimension (size Dim) with learned
// gain and bias: tensor.LayerNormInto forward and
// tensor.LayerNormBackwardInto backward, each row's statistics one
// float64 chain in ascending column order.
type LayerNorm struct {
	Dim  int
	Eps  float64
	Gain *Param // [Dim]
	Bias *Param // [Dim]

	stepMem
	xhat   *tensor.Tensor // cached normalized rows; nil when no training forward is cached
	invStd []float64      // cached per-row 1/√(var+eps)
}

// NewLayerNorm returns a LayerNorm with unit gain and zero bias.
func NewLayerNorm(dim int) *LayerNorm {
	gain := tensor.New(dim)
	gain.Fill(1)
	return &LayerNorm{
		Dim: dim, Eps: 1e-5,
		Gain: NewParam("layernorm.gain", gain),
		Bias: NewParam("layernorm.bias", tensor.New(dim)),
	}
}

// Forward normalizes each row of the trailing dimension.
func (l *LayerNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if shape[len(shape)-1] != l.Dim {
		panic(fmt.Sprintf("nn: LayerNorm expects trailing dim %d, got %v", l.Dim, shape))
	}
	out := l.ar.Get(shape...)
	// Eval forwards invalidate the cache (see the package guard note).
	l.xhat = nil
	var xhat []float32
	var invStd []float64
	if train {
		l.xhat = l.ar.Get(shape...)
		xhat = l.xhat.Data()
		l.invStd = reuse(l.invStd, x.Numel()/l.Dim)
		invStd = l.invStd
		l.cached()
	}
	tensor.LayerNormInto(out.Data(), xhat, invStd, x.Data(), l.Gain.Value.Data(), l.Bias.Value.Data(), l.Eps)
	return out
}

// Backward propagates through the normalization and accumulates dGain,
// dBias.
func (l *LayerNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.xhat == nil {
		panic("nn: LayerNorm.Backward called before Forward(train=true)")
	}
	l.checkCache("LayerNorm")
	gd, xhat := grad.Data(), l.xhat.Data()
	if len(xhat) != len(gd) {
		panic(fmt.Sprintf("nn: LayerNorm.Backward grad has %d elements but cache has %d (stale forward?)", len(gd), len(xhat)))
	}
	out := l.ar.Get(grad.Shape()...)
	tensor.LayerNormBackwardInto(out.Data(), l.Gain.Grad.Data(), l.Bias.Grad.Data(), gd, xhat, l.Gain.Value.Data(), l.invStd)
	return out
}

// Params returns gain and bias.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gain, l.Bias} }

// --- Embedding ---------------------------------------------------------------

// Embedding maps [N, L] float32 token ids to [N, L, Dim] hidden states as
// the sum of a token-table row and a learned position row. Token ids are
// not differentiable; Backward scatter-adds into the tables and returns a
// zero gradient for the ids.
type Embedding struct {
	Vocab, SeqLen, Dim int
	Token              *Param // [Vocab, Dim]
	Pos                *Param // [SeqLen, Dim]

	stepMem
	lastIDs []int // cached ids, train forwards only
	idBuf   []int // backing store of lastIDs, reused from step to step
}

// NewEmbedding returns an Embedding with small uniform init.
func NewEmbedding(rng *rand.Rand, vocab, seqLen, dim int) *Embedding {
	return &Embedding{
		Vocab: vocab, SeqLen: seqLen, Dim: dim,
		Token: NewParam("embed.token", tensor.Rand(rng, -0.1, 0.1, vocab, dim)),
		Pos:   NewParam("embed.pos", tensor.Rand(rng, -0.1, 0.1, seqLen, dim)),
	}
}

// Forward looks up token plus position rows.
func (e *Embedding) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 2 || shape[1] != e.SeqLen {
		panic(fmt.Sprintf("nn: Embedding expects [N,%d] token ids, got %v", e.SeqLen, shape))
	}
	n, l, d := shape[0], shape[1], e.Dim
	out := e.ar.Get(n, l, d)
	xd, od := x.Data(), out.Data()
	tok, pos := e.Token.Value.Data(), e.Pos.Value.Data()
	var ids []int
	if train {
		e.idBuf = reuse(e.idBuf, len(xd))
		ids = e.idBuf
		e.cached()
	}
	for t, v := range xd {
		id := int(v)
		if id < 0 || id >= e.Vocab || float32(id) != v {
			panic(fmt.Sprintf("nn: Embedding token id %v out of range [0,%d)", v, e.Vocab))
		}
		trow := tok[id*d : (id+1)*d]
		prow := pos[(t%l)*d : (t%l+1)*d]
		orow := od[t*d : (t+1)*d]
		for j := range orow {
			orow[j] = trow[j] + prow[j]
		}
		if train {
			ids[t] = id
		}
	}
	e.lastIDs = ids
	return out
}

// Backward scatter-adds the gradient into the token and position tables.
func (e *Embedding) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if e.lastIDs == nil {
		panic("nn: Embedding.Backward called before Forward(train=true)")
	}
	e.checkCache("Embedding")
	gd := grad.Data()
	d := e.Dim
	if len(gd) != len(e.lastIDs)*d {
		panic(fmt.Sprintf("nn: Embedding.Backward grad has %d elements but cache expects %d (stale forward?)", len(gd), len(e.lastIDs)*d))
	}
	dTok, dPos := e.Token.Grad.Data(), e.Pos.Grad.Data()
	for t, id := range e.lastIDs {
		grow := gd[t*d : (t+1)*d]
		trow := dTok[id*d : (id+1)*d]
		prow := dPos[(t%e.SeqLen)*d : (t%e.SeqLen+1)*d]
		for j, g := range grow {
			trow[j] += g
			prow[j] += g
		}
	}
	return e.ar.GetZeroed(len(e.lastIDs)/e.SeqLen, e.SeqLen)
}

// Params returns the token and position tables.
func (e *Embedding) Params() []*Param { return []*Param{e.Token, e.Pos} }

// --- feed-forward ------------------------------------------------------------

// FeedForward is the transformer MLP: per-token Linear(Dim→Hidden), GELU,
// Linear(Hidden→Dim), operating on [N, L, Dim] by viewing rows as
// [N·L, Dim].
type FeedForward struct {
	Dim, Hidden int
	W1, W2      *Linear
	Act         *GELU

	// Kept views (viewAs): the input and the gradient as rows, the
	// output and the input gradient as [N, L, Dim].
	xRows, gRows, out, dx *tensor.Tensor
}

// NewFeedForward builds the MLP with Xavier-initialized projections.
func NewFeedForward(rng *rand.Rand, dim, hidden int) *FeedForward {
	return &FeedForward{
		Dim: dim, Hidden: hidden,
		W1:  NewLinear(rng, dim, hidden, true),
		W2:  NewLinear(rng, hidden, dim, true),
		Act: NewGELU(),
	}
}

// Forward applies the MLP per token.
func (f *FeedForward) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 3 || shape[2] != f.Dim {
		panic(fmt.Sprintf("nn: FeedForward expects [N,L,%d], got %v", f.Dim, shape))
	}
	h := f.W1.Forward(viewAs(&f.xRows, x, shape[0]*shape[1], f.Dim), train)
	h = f.Act.Forward(h, train)
	return viewAs(&f.out, f.W2.Forward(h, train), shape[0], shape[1], f.Dim)
}

// Backward propagates through both projections.
func (f *FeedForward) Backward(grad *tensor.Tensor) *tensor.Tensor {
	shape := grad.Shape()
	g := f.W2.Backward(viewAs(&f.gRows, grad, shape[0]*shape[1], f.Dim))
	g = f.Act.Backward(g)
	return viewAs(&f.dx, f.W1.Backward(g), shape[0], shape[1], f.Dim)
}

// Params returns both projections' parameters.
func (f *FeedForward) Params() []*Param {
	return append(f.W1.Params(), f.W2.Params()...)
}

// --- multi-head self-attention -----------------------------------------------

// MultiHeadAttention is bidirectional (unmasked) multi-head self-attention
// over [N, L, Dim] hidden states. Per-(sample, head) score and context
// products run on the backend's batched GEMM entry points — the skinny
// m ≈ L shapes the batched dispatch heuristic exists for — and the
// softmax is tensor.SoftmaxInto over the scores in place, 1/√dₕ folded
// into it.
type MultiHeadAttention struct {
	Dim, Heads     int
	Wq, Wk, Wv, Wo *Linear

	be tensor.Backend // nil: process default
	stepMem

	// Training caches: per-head projections, attention probabilities, and
	// the batch geometry, invalidated by eval forwards.
	qh, kh, vh *tensor.Tensor // [N·Heads, L, Dim/Heads]
	probs      *tensor.Tensor // [N·Heads, L, L]
	lastN      int
	lastL      int

	// Kept views (viewAs), as FeedForward keeps them.
	xRows, gRows, out, dx *tensor.Tensor
}

// NewMultiHeadAttention builds self-attention with heads | dim.
func NewMultiHeadAttention(rng *rand.Rand, dim, heads int) *MultiHeadAttention {
	if heads <= 0 || dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention heads %d must divide dim %d", heads, dim))
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads,
		Wq: NewLinear(rng, dim, dim, true),
		Wk: NewLinear(rng, dim, dim, true),
		Wv: NewLinear(rng, dim, dim, true),
		Wo: NewLinear(rng, dim, dim, true),
	}
}

// SetBackend routes the batched GEMMs through be. The projections are
// configured separately; ApplyBackend sets all five.
func (a *MultiHeadAttention) SetBackend(be tensor.Backend) { a.be = be }

// splitHeads permutes [N·L, Dim] rows into [N·H, L, Dim/H] instances.
func splitHeads(ar *tensor.Arena, x *tensor.Tensor, n, l, heads int) *tensor.Tensor {
	d := x.Shape()[1]
	dh := d / heads
	out := ar.Get(n*heads, l, dh)
	xd, od := x.Data(), out.Data()
	for s := 0; s < n; s++ {
		for t := 0; t < l; t++ {
			src := xd[(s*l+t)*d : (s*l+t+1)*d]
			for h := 0; h < heads; h++ {
				copy(od[((s*heads+h)*l+t)*dh:((s*heads+h)*l+t+1)*dh], src[h*dh:(h+1)*dh])
			}
		}
	}
	return out
}

// mergeHeads is the inverse permutation, back to [N·L, Dim] rows.
func mergeHeads(ar *tensor.Arena, x *tensor.Tensor, n, l, heads int) *tensor.Tensor {
	dh := x.Shape()[2]
	d := heads * dh
	out := ar.Get(n*l, d)
	xd, od := x.Data(), out.Data()
	for s := 0; s < n; s++ {
		for t := 0; t < l; t++ {
			dst := od[(s*l+t)*d : (s*l+t+1)*d]
			for h := 0; h < heads; h++ {
				copy(dst[h*dh:(h+1)*dh], xd[((s*heads+h)*l+t)*dh:((s*heads+h)*l+t+1)*dh])
			}
		}
	}
	return out
}

// attnScale is the scores' 1/√dₕ.
func attnScale(dh int) float32 { return float32(1 / math.Sqrt(float64(dh))) }

// Forward computes softmax(Q·Kᵀ/√dₕ)·V per head, then the output
// projection.
func (a *MultiHeadAttention) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 3 || shape[2] != a.Dim {
		panic(fmt.Sprintf("nn: MultiHeadAttention expects [N,L,%d], got %v", a.Dim, shape))
	}
	n, l, g, dh := shape[0], shape[1], shape[0]*a.Heads, a.Dim/a.Heads
	be, ar := backendOr(a.be), a.ar
	x2 := viewAs(&a.xRows, x, n*l, a.Dim)
	qh := splitHeads(ar, a.Wq.Forward(x2, train), n, l, a.Heads)
	kh := splitHeads(ar, a.Wk.Forward(x2, train), n, l, a.Heads)
	vh := splitHeads(ar, a.Wv.Forward(x2, train), n, l, a.Heads)

	// The scores become their softmax in place, 1/√dₕ folded into the
	// kernel's max and shift passes.
	probs := ar.Get(g, l, l)
	be.MatMulTBBatchInto(probs, qh, kh)
	tensor.SoftmaxInto(probs.Data(), probs.Data(), l, attnScale(dh))
	ctx := ar.Get(g, l, dh)
	be.MatMulBatchInto(ctx, probs, vh)
	out := a.Wo.Forward(mergeHeads(ar, ctx, n, l, a.Heads), train)

	if train {
		a.qh, a.kh, a.vh, a.probs = qh, kh, vh, probs
		a.lastN, a.lastL = n, l
		a.cached()
	} else {
		a.qh, a.kh, a.vh, a.probs = nil, nil, nil, nil
	}
	return viewAs(&a.out, out, n, l, a.Dim)
}

// Backward propagates through the attention product, softmax, scaling,
// and all four projections.
func (a *MultiHeadAttention) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if a.probs == nil {
		panic("nn: MultiHeadAttention.Backward called before Forward(train=true)")
	}
	a.checkCache("MultiHeadAttention")
	n, l, g, dh := a.lastN, a.lastL, a.lastN*a.Heads, a.Dim/a.Heads
	gd := grad.Data()
	if len(gd) != n*l*a.Dim {
		panic(fmt.Sprintf("nn: MultiHeadAttention.Backward grad has %d elements but cache expects %d (stale forward?)", len(gd), n*l*a.Dim))
	}
	be, ar := backendOr(a.be), a.ar
	dCtx2 := a.Wo.Backward(viewAs(&a.gRows, grad, n*l, a.Dim))
	dCtx := splitHeads(ar, dCtx2, n, l, a.Heads) // [N·H, L, dh]

	dProbs, dV := ar.Get(g, l, l), ar.Get(g, l, dh)
	be.MatMulTBBatchInto(dProbs, dCtx, a.vh)
	be.MatMulTABatchInto(dV, a.probs, dCtx) // probsᵀ·dCtx
	// dProbs becomes the scores' gradient in place, 1/√dₕ applied at
	// the store.
	tensor.SoftmaxBackwardInto(dProbs.Data(), a.probs.Data(), dProbs.Data(), l, attnScale(dh))
	dQ, dK := ar.Get(g, l, dh), ar.Get(g, l, dh)
	be.MatMulBatchInto(dQ, dProbs, a.kh)
	be.MatMulTABatchInto(dK, dProbs, a.qh)

	dx := a.Wq.Backward(mergeHeads(ar, dQ, n, l, a.Heads))
	be.Add(dx, dx, a.Wk.Backward(mergeHeads(ar, dK, n, l, a.Heads)))
	be.Add(dx, dx, a.Wv.Backward(mergeHeads(ar, dV, n, l, a.Heads)))
	return viewAs(&a.dx, dx, n, l, a.Dim)
}

// Params returns all four projections' parameters.
func (a *MultiHeadAttention) Params() []*Param {
	ps := append(a.Wq.Params(), a.Wk.Params()...)
	ps = append(ps, a.Wv.Params()...)
	return append(ps, a.Wo.Params()...)
}

// --- sequence pooling --------------------------------------------------------

// MeanPoolSeq averages [N, L, D] hidden states over the sequence
// dimension, producing [N, D] features for a classifier head.
type MeanPoolSeq struct {
	stepMem
	lastL int // cached sequence length, train forwards only
}

// NewMeanPoolSeq returns a sequence mean pool.
func NewMeanPoolSeq() *MeanPoolSeq { return &MeanPoolSeq{} }

// Forward averages over dimension 1.
func (p *MeanPoolSeq) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 3 {
		panic(fmt.Sprintf("nn: MeanPoolSeq expects [N,L,D], got %v", shape))
	}
	n, l, d := shape[0], shape[1], shape[2]
	out := p.ar.GetZeroed(n, d)
	xd, od := x.Data(), out.Data()
	inv := 1 / float32(l)
	for s := 0; s < n; s++ {
		orow := od[s*d : (s+1)*d]
		for t := 0; t < l; t++ {
			row := xd[(s*l+t)*d : (s*l+t+1)*d]
			for j, v := range row {
				orow[j] += v
			}
		}
		for j := range orow {
			orow[j] *= inv
		}
	}
	if train {
		p.lastL = l
	} else {
		p.lastL = 0
	}
	return out
}

// Backward broadcasts the gradient back over the sequence positions.
func (p *MeanPoolSeq) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastL == 0 {
		panic("nn: MeanPoolSeq.Backward called before Forward(train=true)")
	}
	shape := grad.Shape()
	if len(shape) != 2 {
		panic(fmt.Sprintf("nn: MeanPoolSeq.Backward expects [N,D] grad, got %v", shape))
	}
	n, d, l := shape[0], shape[1], p.lastL
	out := p.ar.Get(n, l, d)
	gd, od := grad.Data(), out.Data()
	inv := 1 / float32(l)
	for s := 0; s < n; s++ {
		grow := gd[s*d : (s+1)*d]
		for t := 0; t < l; t++ {
			orow := od[(s*l+t)*d : (s*l+t+1)*d]
			for j, g := range grow {
				orow[j] = g * inv
			}
		}
	}
	return out
}

// Params returns nil; pooling has no trainable parameters.
func (p *MeanPoolSeq) Params() []*Param { return nil }

var (
	_ Layer       = (*GELU)(nil)
	_ Layer       = (*LayerNorm)(nil)
	_ Layer       = (*Embedding)(nil)
	_ Layer       = (*FeedForward)(nil)
	_ Layer       = (*MultiHeadAttention)(nil)
	_ Layer       = (*MeanPoolSeq)(nil)
	_ BackendUser = (*MultiHeadAttention)(nil)
)
