package tensor

import (
	"math/rand"
	"strings"
	"testing"
)

// TestThrottledBitIdentical is the straggler backend's contract: every
// kernel delegates to the inner backend untouched, so a throttled device
// computes exactly the same bits as an unthrottled one — only slower.
// The repartition equivalence tests rest on this.
func TestThrottledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inner := Serial{}
	th := NewThrottled(inner, 2)

	a := Rand(rng, -1, 1, 7, 5)
	b := Rand(rng, -1, 1, 5, 9)
	got, want := New(7, 9), New(7, 9)
	th.MatMulInto(got, a, b)
	inner.MatMulInto(want, a, b)
	if !got.Equal(want) {
		t.Error("throttled MatMul diverges from inner backend")
	}

	e1 := Rand(rng, -2, 2, 6, 4)
	e2 := Rand(rng, -2, 2, 6, 4)
	for name, run := range map[string]func(be Backend) *Tensor{
		"Add":   func(be Backend) *Tensor { out := New(6, 4); be.Add(out, e1, e2); return out },
		"Sub":   func(be Backend) *Tensor { out := New(6, 4); be.Sub(out, e1, e2); return out },
		"Mul":   func(be Backend) *Tensor { out := New(6, 4); be.Mul(out, e1, e2); return out },
		"Scale": func(be Backend) *Tensor { out := e1.Clone(); be.Scale(out, out, -1.5); return out },
		"Axpy":  func(be Backend) *Tensor { out := e1.Clone(); be.Axpy(out, 0.25, e2); return out },
	} {
		if got, want := run(th), run(inner); !got.Equal(want) {
			t.Errorf("throttled %s diverges from inner backend", name)
		}
	}

	const n, c, h, w, k, stride, pad, outC = 2, 3, 8, 8, 3, 1, 1, 4
	x := Rand(rng, -1, 1, n, c, h, w)
	oh := ConvOutSize(h, k, stride, pad)
	ow := ConvOutSize(w, k, stride, pad)
	colsT, colsS := New(c*k*k, n*oh*ow), New(c*k*k, n*oh*ow)
	th.Im2ColInto(colsT, x, k, k, stride, pad)
	inner.Im2ColInto(colsS, x, k, k, stride, pad)
	if !colsT.Equal(colsS) {
		t.Error("throttled Im2Col diverges from inner backend")
	}
	kw2 := Rand(rng, -1, 1, outC, c*k*k)
	grad := Rand(rng, -1, 1, outC, n*oh*ow)
	fwdT, fwdS := New(n, outC, oh, ow), New(n, outC, oh, ow)
	th.ConvForwardInto(fwdT, kw2, x, k, k, stride, pad)
	inner.ConvForwardInto(fwdS, kw2, x, k, k, stride, pad)
	if !fwdT.Equal(fwdS) {
		t.Error("throttled ConvForward diverges from inner backend")
	}
	dwT, dwS := New(outC, c*k*k), New(outC, c*k*k)
	th.ConvGradWeightInto(dwT, grad, x, k, k, stride, pad)
	inner.ConvGradWeightInto(dwS, grad, x, k, k, stride, pad)
	if !dwT.Equal(dwS) {
		t.Error("throttled ConvGradWeight diverges from inner backend")
	}
}

// TestThrottledName: the wrapped name advertises both the inner backend
// and the slowdown factor, so logs make stragglers identifiable.
func TestThrottledName(t *testing.T) {
	th := NewThrottled(Serial{}, 4)
	if got := th.Name(); !strings.Contains(got, "serial") || !strings.Contains(got, "slow4") {
		t.Fatalf("Name() = %q, want inner name and slow factor", got)
	}
}

// TestThrottledRejectsBadFactor: a factor below 1 is a programming error.
func TestThrottledRejectsBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewThrottled(_, 0) did not panic")
		}
	}()
	NewThrottled(Serial{}, 0)
}
