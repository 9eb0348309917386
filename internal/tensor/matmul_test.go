package tensor

import (
	"math/rand"
	"testing"
)

// matMulNaive is an independent reference implementation used to validate
// the optimized kernels.
func matMulNaive(a, b *Tensor) *Tensor {
	m, k := a.Shape()[0], a.Shape()[1]
	n := b.Shape()[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulKnownValues(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	got := New(2, 2)
	Serial{}.MatMulInto(got, a, b)
	want := FromSlice([]float32{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := Rand(rng, -2, 2, m, k)
		b := Rand(rng, -2, 2, k, n)
		got := New(m, n)
		Serial{}.MatMulInto(got, a, b)
		want := matMulNaive(a, b)
		if !got.AllClose(want, 1e-5, 1e-5) {
			t.Fatalf("MatMul mismatch for %dx%dx%d", m, k, n)
		}
	}
}

func TestMatMulTAEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Rand(rng, -2, 2, k, m) // note: transposed layout
		b := Rand(rng, -2, 2, k, n)
		got, want := New(m, n), New(m, n)
		Serial{}.MatMulTAInto(got, a, b)
		Serial{}.MatMulInto(want, transpose2D(a), b)
		if !got.AllClose(want, 1e-5, 1e-5) {
			t.Fatalf("MatMulTA mismatch for %dx%dx%d", m, k, n)
		}
	}
}

func TestMatMulTBEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := Rand(rng, -2, 2, m, k)
		b := Rand(rng, -2, 2, n, k) // note: transposed layout
		got, want := New(m, n), New(m, n)
		Serial{}.MatMulTBInto(got, a, b)
		Serial{}.MatMulInto(want, a, transpose2D(b))
		if !got.AllClose(want, 1e-5, 1e-5) {
			t.Fatalf("MatMulTB mismatch for %dx%dx%d", m, k, n)
		}
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(12)
		eye := New(n, n)
		for i := 0; i < n; i++ {
			eye.Set(1, i, i)
		}
		x := Rand(rng, -3, 3, n, n)
		left, right := New(n, n), New(n, n)
		Serial{}.MatMulInto(left, eye, x)
		Serial{}.MatMulInto(right, x, eye)
		if !left.AllClose(x, 1e-6, 1e-6) || !right.AllClose(x, 1e-6, 1e-6) {
			t.Fatalf("identity property failed for n=%d", n)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a, b := New(2, 3), New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dimension mismatch")
		}
	}()
	Serial{}.MatMulInto(New(2, 2), a, b)
}

func TestMatMulIntoOutputShapePanic(t *testing.T) {
	a, b := New(2, 3), New(3, 4)
	out := New(2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong output shape")
		}
	}()
	Serial{}.MatMulInto(out, a, b)
}
