//go:build linux && amd64

package tensor

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n floats that end flush against a PROT_NONE page, so a
// read of even one float past their end faults instead of returning
// whatever memory follows. The mapping is released when t ends.
func guarded(t *testing.T, n int) []float32 {
	page := syscall.Getpagesize()
	data := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[data-4*n])), n)
}

// guardedCopy returns x's values in a guarded tensor of x's shape.
func guardedCopy(t *testing.T, x *Tensor) *Tensor {
	g := FromSlice(guarded(t, len(x.data)), x.shape...)
	copy(g.data, x.data)
	return g
}

// TestGemmReadsStayInsideOperands runs every layout through the AVX
// kernel with each operand — A, B and the output — ending flush against
// an unmapped page, so a read one float past an operand's end faults. Go
// cannot bounds-check the assembly, so this is what shows that the
// in-place reads stay inside the operand they describe. The shapes put B
// on both sides of inPlaceBMax with whole tiles, leave ragged rows and
// columns, and span several kcBlocks with B in place and packed; every
// result must equal the reference kernels' bit for bit, serially and on
// a pool.
func TestGemmReadsStayInsideOperands(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: the generic kernel runs, and Go bounds-checks it")
	}
	pool := NewPool(2)
	rng := rand.New(rand.NewSource(31))
	kAt := inPlaceBMax / 64 // k at which k·n reaches the bound for n = 64
	for _, s := range []struct {
		g, m, k, n int
		inPlace    bool // whether layout AB reads B in place
	}{
		{1, 16, kAt, 64, true},            // whole tiles, B at the bound
		{1, 16, kAt + 8, 64, false},       // whole tiles, B just past it
		{2, 32, 32, 16, true},             // the attention batches' shape
		{1, 13, 40, 21, false},            // ragged rows and columns
		{3, 21, 33, 16, true},             // ragged rows, B in place
		{1, 24, 35, 19, false},            // whole row tiles, ragged columns
		{1, 16, kcBlock + 8, 8, true},     // two kcBlocks, B in place
		{1, 9, kcBlock + 8, 8, true},      // the same with a ragged row tile
		{1, 16, 2*kcBlock + 8, 16, false}, // three kcBlocks, B packed
	} {
		for layout := layoutAB; layout <= layoutTB; layout++ {
			ar, ac, br, bc := s.m, s.k, s.k, s.n
			if layout == layoutTA {
				ar, ac = s.k, s.m
			}
			if layout == layoutTB {
				br, bc = s.n, s.k
			}
			a, b := Rand(rng, -2, 2, s.g, ar, ac), Rand(rng, -2, 2, s.g, br, bc)
			want := matMulRef(layout, s.g, s.m, s.k, s.n, a.data, b.data)
			ga, gb := guardedCopy(t, a), guardedCopy(t, b)
			for _, p := range []*Pool{nil, pool} {
				label := fmt.Sprintf("layout=%d g=%d m=%d k=%d n=%d pooled=%v", layout, s.g, s.m, s.k, s.n, p != nil)
				out := FromSlice(guarded(t, s.g*s.m*s.n), s.g, s.m, s.n)
				o := matMulOperands("TestGemmReadsStayInsideOperands", layout, 3, out, ga, gb)
				if layout == layoutAB && o.bInPlace() != s.inPlace {
					t.Fatalf("%s: B read in place = %v, the case wants %v", label, o.bInPlace(), s.inPlace)
				}
				gemmPacked(p, &o)
				if diff := bitsDiff(out, want); diff != "" {
					t.Fatalf("%s: %s", label, diff)
				}
			}
		}
	}

	// The fused conv layouts read their A — the weights, or the output
	// gradient — in place too: 6 rows leave one ragged tile, 16 none.
	const kk, stride, pad = 3, 1, 1
	x := Rand(rng, -2, 2, 2, 3, 9, 9)
	K, S := 3*kk*kk, 2*9*9
	cols := New(K, S)
	Serial{}.Im2ColInto(cols, x, kk, kk, stride, pad)
	gx := guardedCopy(t, x)
	for _, m := range []int{6, 16} {
		w, grad := Rand(rng, -2, 2, m, K), Rand(rng, -2, 2, m, S)
		wantFwd, wantDW := New(m, S), New(m, K)
		matMulRowsRef(wantFwd.data, w.data, cols.data, K, S, 0, m)
		matMulTBRowsRef(wantDW.data, grad.data, cols.data, S, K, 0, m)
		gw, ggrad := guardedCopy(t, w), guardedCopy(t, grad)
		for _, p := range []*Pool{nil, pool} {
			fwd := FromSlice(guarded(t, m*S), m, S)
			backendOf(p).ConvForwardInto(fwd, gw, gx, kk, kk, stride, pad)
			if diff := bitsDiff(fwd, wantFwd); diff != "" {
				t.Fatalf("ConvForwardInto m=%d pooled=%v: %s", m, p != nil, diff)
			}
			dw := FromSlice(guarded(t, m*K), m, K)
			backendOf(p).ConvGradWeightInto(dw, ggrad, gx, kk, kk, stride, pad)
			if diff := bitsDiff(dw, wantDW); diff != "" {
				t.Fatalf("ConvGradWeightInto m=%d pooled=%v: %s", m, p != nil, diff)
			}
		}
	}
}

// TestTranscendReadsStayInsideOperands runs the AVX tanh and exp lanes
// with src and dst each ending flush against an unmapped page, at
// lengths that leave every tail of 0–7 floats after the whole groups of
// eight: a vector load or store past the last whole group faults. The
// results must equal the scalar loop's bit for bit, apart and in place.
func TestTranscendReadsStayInsideOperands(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: the scalar loop runs, and Go bounds-checks it")
	}
	inputs := transcendInputs(rand.New(rand.NewSource(32)), 4096)
	for _, k := range transcendKernels {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
			4097, 4098, 4099, 4100, 4101, 4102, 4103} {
			src, dst := guarded(t, n), guarded(t, n)
			copy(src, inputs)
			in, want := append([]float32(nil), src...), make([]float32, n)
			k.scalar(want, src)
			k.kernel(dst, src)
			if diff := bitsMismatch(in, dst, want); diff != "" {
				t.Fatalf("%s n=%d: %s", k.name, n, diff)
			}
			k.kernel(src, src)
			if diff := bitsMismatch(in, src, want); diff != "" {
				t.Fatalf("%s n=%d in place: %s", k.name, n, diff)
			}
		}
	}
}
