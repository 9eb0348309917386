package tensor

import (
	"math/rand"
	"testing"
)

func TestNewShapeAndZeroFill(t *testing.T) {
	x := New(2, 3, 4)
	if x.Numel() != 24 {
		t.Fatalf("Numel = %d, want 24", x.Numel())
	}
	if x.NDim() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}, {3, 0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	x := FromSlice(d, 2, 3)
	if x.At(0, 0) != 1 || x.At(1, 2) != 6 {
		t.Fatalf("wrong values: %v", x.Data())
	}
	x.Set(99, 1, 0)
	if d[3] != 99 {
		t.Fatal("FromSlice must alias the provided slice")
	}
}

func TestFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 2, 1, 3)
	if got := x.At(2, 1, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset check: ((2*4)+1)*5 + 3 = 48.
	if x.Data()[48] != 7.5 {
		t.Fatal("offset computation is not row-major")
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = x.At(0, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(100, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must not alias original data")
	}
	if !x.SameShape(y) {
		t.Fatal("Clone must preserve shape")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	y.Set(42, 0, 1)
	if x.At(0, 1) != 42 {
		t.Fatal("Reshape must share backing data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on element-count change")
		}
	}()
	x.Reshape(4, 2)
}

func TestFillZero(t *testing.T) {
	x := Full(3, 2, 2)
	for _, v := range x.Data() {
		if v != 3 {
			t.Fatalf("Full: got %v", v)
		}
	}
	x.Zero()
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("Zero: got %v", v)
		}
	}
	x.Fill(-1)
	if x.At(1, 1) != -1 {
		t.Fatal("Fill failed")
	}
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{1, 2.00001}, 2)
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.AllClose(b, 1e-3, 1e-3) {
		t.Fatal("AllClose should tolerate 1e-5 difference")
	}
	c := FromSlice([]float32{1, 2}, 1, 2)
	if a.Equal(c) || a.AllClose(c, 1, 1) {
		t.Fatal("shape mismatch must not compare equal")
	}
}

func TestCopyFrom(t *testing.T) {
	a := New(2, 3)
	b := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	a.CopyFrom(b) // same numel, different shape: allowed
	if a.At(1, 2) != 6 {
		t.Fatal("CopyFrom did not copy values")
	}
}

func TestRandDeterminism(t *testing.T) {
	a := Rand(rand.New(rand.NewSource(7)), -1, 1, 3, 3)
	b := Rand(rand.New(rand.NewSource(7)), -1, 1, 3, 3)
	if !a.Equal(b) {
		t.Fatal("Rand with equal seeds must be deterministic")
	}
	c := Rand(rand.New(rand.NewSource(8)), -1, 1, 3, 3)
	if a.Equal(c) {
		t.Fatal("different seeds should give different tensors")
	}
	for _, v := range a.Data() {
		if v < -1 || v >= 1 {
			t.Fatalf("Rand value %v outside [-1,1)", v)
		}
	}
}

func TestRandnMoments(t *testing.T) {
	x := Randn(rand.New(rand.NewSource(1)), 2, 0.5, 100, 100)
	var mean float64
	for _, v := range x.Data() {
		mean += float64(v) / float64(x.Numel())
	}
	if mean < 1.95 || mean > 2.05 {
		t.Fatalf("Randn mean = %v, want ~2", mean)
	}
	var varSum float64
	for _, v := range x.Data() {
		d := float64(v) - mean
		varSum += d * d
	}
	std := varSum / float64(x.Numel())
	if std < 0.2 || std > 0.3 {
		t.Fatalf("Randn variance = %v, want ~0.25", std)
	}
}

func TestStringCompact(t *testing.T) {
	small := FromSlice([]float32{1, 2}, 2)
	if small.String() == "" {
		t.Fatal("String should not be empty")
	}
	big := New(100)
	s := big.String()
	if len(s) > 200 {
		t.Fatalf("String for big tensor too long: %d chars", len(s))
	}
}
