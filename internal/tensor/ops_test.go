package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randVec builds a small deterministic tensor from quick-generated values.
func vecFrom(vals []float32) *Tensor {
	if len(vals) == 0 {
		vals = []float32{0}
	}
	clean := make([]float32, len(vals))
	for i, v := range vals {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			v = 0
		}
		// Keep magnitudes small so float32 arithmetic stays exact enough.
		clean[i] = float32(math.Mod(float64(v), 100))
	}
	return FromSlice(clean, len(clean))
}

func TestAddSubMulScale(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	be, got := Serial{}, New(2, 2)
	if be.Add(got, a, b); !got.Equal(FromSlice([]float32{11, 22, 33, 44}, 2, 2)) {
		t.Fatalf("Add = %v", got)
	}
	if be.Sub(got, b, a); !got.Equal(FromSlice([]float32{9, 18, 27, 36}, 2, 2)) {
		t.Fatalf("Sub = %v", got)
	}
	if be.Mul(got, a, b); !got.Equal(FromSlice([]float32{10, 40, 90, 160}, 2, 2)) {
		t.Fatalf("Mul = %v", got)
	}
	if be.Scale(got, a, 0.5); !got.Equal(FromSlice([]float32{0.5, 1, 1.5, 2}, 2, 2)) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	f := func(vals []float32) bool {
		a, b := vecFrom(vals), vecFrom(vals)
		ScaleInPlace(b, 3)
		ab, ba := New(a.Shape()...), New(a.Shape()...)
		Serial{}.Add(ab, a, b)
		Serial{}.Add(ba, b, a)
		return ab.Equal(ba)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubOfSelfIsZeroProperty(t *testing.T) {
	f := func(vals []float32) bool {
		a := vecFrom(vals)
		d := New(a.Shape()...)
		Serial{}.Sub(d, a, a)
		for _, v := range d.Data() {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddIntoAxpyInto(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{3, 4}, 2)
	AddInto(a, b)
	if !a.Equal(FromSlice([]float32{4, 6}, 2)) {
		t.Fatalf("AddInto = %v", a)
	}
	Serial{}.Axpy(a, -2, b)
	if !a.Equal(FromSlice([]float32{-2, -2}, 2)) {
		t.Fatalf("Axpy = %v", a)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(4)
	for name, fn := range map[string]func(){
		"Add":     func() { Serial{}.Add(a, a, b) },
		"Sub":     func() { Serial{}.Sub(a, a, b) },
		"Mul":     func() { Serial{}.Mul(a, a, b) },
		"Scale":   func() { Serial{}.Scale(a, b, 2) },
		"AddInto": func() { AddInto(a, b) },
		"Axpy":    func() { Serial{}.Axpy(a, 1, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched shapes did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestArgMaxRow(t *testing.T) {
	x := FromSlice([]float32{1, 5, 2, 9, 0, 3}, 2, 3)
	got := ArgMaxRow(x)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgMaxRow = %v, want [1 0]", got)
	}
	tie := FromSlice([]float32{2, 2}, 1, 2)
	if ArgMaxRow(tie)[0] != 0 {
		t.Fatal("ties must resolve to lowest index")
	}
}

// transpose2D returns the transpose of a 2-D tensor: how the kernel tests
// lay out the operands of the TA and TB variants.
func transpose2D(t *Tensor) *Tensor {
	rows, cols := t.shape[0], t.shape[1]
	out := New(cols, rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out.data[c*rows+r] = t.data[r*cols+c]
		}
	}
	return out
}

func TestTranspose2D(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := transpose2D(x)
	want := FromSlice([]float32{1, 4, 2, 5, 3, 6}, 3, 2)
	if !got.Equal(want) {
		t.Fatalf("Transpose2D = %v", got)
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		x := Rand(rng, -5, 5, r, c)
		if !transpose2D(transpose2D(x)).Equal(x) {
			t.Fatalf("transpose(transpose(x)) != x for %dx%d", r, c)
		}
	}
}
