package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// parallelVariants returns parallel backends with worker counts chosen to
// exercise awkward partitions: more workers than rows, row counts not
// divisible by the worker count, and the shared GOMAXPROCS pool.
func parallelVariants() []*Parallel {
	return []*Parallel{NewParallel(0), NewParallel(2), NewParallel(3), NewParallel(7)}
}

// TestMatMulFamilyBackendParity is the backend contract test: for every
// GEMM variant and a table of deliberately odd shapes — 1×N, N×1, primes,
// rows not divisible by any worker count — the parallel backend must be
// bit-identical to the serial reference.
func TestMatMulFamilyBackendParity(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{1, 7, 5},
		{7, 1, 5},
		{5, 7, 1},
		{3, 5, 4},
		{13, 11, 17},
		{64, 64, 64},
		{65, 33, 29}, // odd everything
		{129, 300, 31},
		{2, 1024, 3}, // deep reduction exercises kc blocking
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		a := Rand(rng, -1, 1, s.m, s.k)
		b := Rand(rng, -1, 1, s.k, s.n)
		// Sparsify a few entries so exact-zero terms are exercised.
		a.Data()[0] = 0
		if s.m*s.k > 3 {
			a.Data()[3] = 0
		}
		aT := Transpose2D(a) // [k, m]
		bT := Transpose2D(b) // [n, k]

		ref := MatMulWith(Serial{}, a, b)
		refTA := MatMulTAWith(Serial{}, aT, b)
		refTB := MatMulTBWith(Serial{}, a, bT)
		for _, p := range parallelVariants() {
			label := fmt.Sprintf("m=%d k=%d n=%d workers=%d", s.m, s.k, s.n, p.Workers())
			if got := MatMulWith(p, a, b); !got.Equal(ref) {
				t.Errorf("MatMul not bit-identical to serial (%s)", label)
			}
			if got := MatMulTAWith(p, aT, b); !got.Equal(refTA) {
				t.Errorf("MatMulTA not bit-identical to serial (%s)", label)
			}
			if got := MatMulTBWith(p, a, bT); !got.Equal(refTB) {
				t.Errorf("MatMulTB not bit-identical to serial (%s)", label)
			}
		}
	}
}

// TestMatMulTransposedAgreement pins the refactored TA/TB kernels to the
// plain MatMul on explicitly transposed operands.
func TestMatMulTransposedAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Rand(rng, -1, 1, 9, 6)
	b := Rand(rng, -1, 1, 6, 11)
	want := MatMul(a, b)
	if got := MatMulTA(Transpose2D(a), b); !got.AllClose(want, 1e-6, 1e-6) {
		t.Fatal("MatMulTA(aᵀ, b) disagrees with MatMul(a, b)")
	}
	if got := MatMulTB(a, Transpose2D(b)); !got.AllClose(want, 1e-6, 1e-6) {
		t.Fatal("MatMulTB(a, bᵀ) disagrees with MatMul(a, b)")
	}
}

// TestIm2ColCol2ImBackendParity checks the convolution lowering kernels
// across geometry corner cases (pad 0/1/2, stride 1/2, 1×1 kernels,
// single-channel and channel counts not divisible by worker counts).
func TestIm2ColCol2ImBackendParity(t *testing.T) {
	cases := []struct{ n, c, h, w, k, stride, pad int }{
		{1, 1, 5, 5, 3, 1, 1},
		{2, 3, 8, 8, 3, 1, 1},
		{2, 5, 7, 9, 3, 2, 1},
		{1, 7, 6, 6, 1, 1, 0},
		{3, 4, 11, 5, 5, 2, 2},
	}
	rng := rand.New(rand.NewSource(3))
	for _, cse := range cases {
		x := Rand(rng, -1, 1, cse.n, cse.c, cse.h, cse.w)
		refCols := Im2ColWith(Serial{}, x, cse.k, cse.k, cse.stride, cse.pad)
		refBack := Col2ImWith(Serial{}, refCols, cse.n, cse.c, cse.h, cse.w, cse.k, cse.k, cse.stride, cse.pad)
		for _, p := range parallelVariants() {
			label := fmt.Sprintf("%+v workers=%d", cse, p.Workers())
			cols := Im2ColWith(p, x, cse.k, cse.k, cse.stride, cse.pad)
			if !cols.Equal(refCols) {
				t.Errorf("Im2Col not bit-identical to serial (%s)", label)
			}
			back := Col2ImWith(p, cols, cse.n, cse.c, cse.h, cse.w, cse.k, cse.k, cse.stride, cse.pad)
			if !back.Equal(refBack) {
				t.Errorf("Col2Im not bit-identical to serial (%s)", label)
			}
		}
	}
}

// TestElementwiseBackendParity covers the elementwise interface surface,
// including dst aliasing an operand.
func TestElementwiseBackendParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := Rand(rng, -2, 2, 13, 7)
	b := Rand(rng, -2, 2, 13, 7)
	for _, p := range parallelVariants() {
		for name, run := range map[string]func(be Backend) *Tensor{
			"Add": func(be Backend) *Tensor { out := New(13, 7); be.Add(out, a, b); return out },
			"Sub": func(be Backend) *Tensor { out := New(13, 7); be.Sub(out, a, b); return out },
			"Mul": func(be Backend) *Tensor { out := New(13, 7); be.Mul(out, a, b); return out },
			"Scale": func(be Backend) *Tensor {
				out := a.Clone()
				be.Scale(out, out, -1.5) // aliased dst
				return out
			},
			"Axpy": func(be Backend) *Tensor {
				out := a.Clone()
				be.Axpy(out, 0.25, b)
				return out
			},
		} {
			want, got := run(Serial{}), run(p)
			if !got.Equal(want) {
				t.Errorf("%s not bit-identical to serial (workers=%d)", name, p.Workers())
			}
		}
	}
}

// TestBackendRegistry checks the registry plumbing used by the -backend
// flag and engine.Config.
func TestBackendRegistry(t *testing.T) {
	for _, name := range []string{"serial", "parallel"} {
		be, ok := Lookup(name)
		if !ok || be.Name() != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, be, ok)
		}
	}
	if _, ok := Lookup("no-such-backend"); ok {
		t.Fatal("Lookup of unregistered backend succeeded")
	}
	if Default() == nil {
		t.Fatal("no default backend")
	}
}

// TestParallelForCoversRange checks the chunk queue visits every index
// exactly once for sizes around the chunking boundaries.
func TestParallelForCoversRange(t *testing.T) {
	pool := NewPool(4)
	for _, n := range []int{0, 1, 2, 3, 7, 16, 17, 101, 1000} {
		var mu sync.Mutex
		seen := make([]int, n)
		pool.ParallelFor(n, 2, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("n=%d: bad chunk [%d,%d)", n, lo, hi)
			}
			mu.Lock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
			mu.Unlock()
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

// TestParallelForConcurrentCallers drives one pool from many goroutines
// at once, the shape of load the pipelined engine generates. Run under
// -race this also proves submission is properly synchronized.
func TestParallelForConcurrentCallers(t *testing.T) {
	pool := NewPool(3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				n := 64
				out := make([]int, n)
				pool.ParallelFor(n, 4, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = i * i
					}
				})
				for i := range out {
					if out[i] != i*i {
						t.Errorf("lost update at %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestArenaReuse checks that released buffers are recycled (same backing
// array) and that shape bookkeeping survives the round trip.
func TestArenaReuse(t *testing.T) {
	ar := NewArena()
	a := ar.Get(4, 6)
	a.Fill(3)
	ar.Release(a)
	b := ar.Get(6, 4) // same element count, different shape
	if &b.Data()[0] != &a.Data()[0] {
		t.Fatal("arena did not recycle the released buffer")
	}
	if b.Dim(0) != 6 || b.Dim(1) != 4 {
		t.Fatalf("recycled tensor has shape %v, want [6 4]", b.Shape())
	}
	z := ar.GetZeroed(6, 4)
	for _, v := range z.Data() {
		if v != 0 {
			t.Fatal("GetZeroed returned dirty buffer")
		}
	}
	ar.Release(nil, b) // nil entries must be ignored
	if got := ar.Get(2, 12); &got.Data()[0] != &b.Data()[0] {
		t.Fatal("release after nil entry was dropped")
	}
}

// TestArenaResetRecyclesTheStep: Reset takes back everything handed out
// since the last one — released early or not — in request order, and
// ticks the generation; a second Release of the same tensor is a bug the
// arena reports.
func TestArenaResetRecyclesTheStep(t *testing.T) {
	ar := NewArena()
	a, b, c := ar.Get(2, 3), ar.Get(3, 2), ar.Get(5)
	ar.Release(a)
	if g := ar.Generation(); g != 0 {
		t.Fatalf("generation %d before any Reset", g)
	}
	ar.Reset()
	if g := ar.Generation(); g != 1 {
		t.Fatalf("generation %d after one Reset", g)
	}
	ar.Poison()
	for _, v := range append(append(a.Data(), b.Data()...), c.Data()...) {
		if v == v {
			t.Fatal("Poison left a free buffer readable")
		}
	}
	x, y, z := ar.Get(6), ar.GetZeroed(6), ar.Get(6)
	if !(x == a && y == b || x == b && y == a) || z == a || z == b {
		t.Fatal("Reset did not return both six-element tensors, each once")
	}
	for _, v := range y.Data() {
		if v != 0 {
			t.Fatal("GetZeroed returned a poisoned buffer")
		}
	}
	if ar.Get(1, 5) != c {
		t.Fatal("Reset did not return the five-element tensor")
	}
	ar.Release(x)
	for name, f := range map[string]func(){
		"second release":  func() { ar.Release(x) },
		"foreign tensor":  func() { ar.Release(New(6)) },
		"unknown size":    func() { ar.Release(New(7)) },
		"after the reset": func() { ar.Reset(); ar.Release(y) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Release did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestNilArenaIsPlainAllocation: code written against an arena runs
// unchanged with none attached.
func TestNilArenaIsPlainAllocation(t *testing.T) {
	var ar *Arena
	a, b := ar.Get(2, 2), ar.GetZeroed(2, 2)
	if a == b || &a.Data()[0] == &b.Data()[0] || a.Dim(1) != 2 {
		t.Fatal("nil arena did not allocate fresh tensors")
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("nil arena Get is New: zero-filled")
		}
	}
	ar.Release(a, nil)
	ar.Reset()
	if ar.Generation() != 0 || a.Data()[0] != 0 {
		t.Fatal("Release and Reset must do nothing on a nil arena")
	}
}
