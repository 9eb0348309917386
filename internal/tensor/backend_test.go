package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// variantWorkers sizes the parallel backends the parity tests run: worker
// counts chosen to exercise awkward partitions — more workers than rows,
// row counts not divisible by the worker count — and 0, the shared
// GOMAXPROCS pool.
var variantWorkers = []int{0, 2, 3, 7}

// parallelVariants returns one parallel backend per variantWorkers entry.
func parallelVariants() []*Parallel {
	out := make([]*Parallel, len(variantWorkers))
	for i, workers := range variantWorkers {
		out[i] = NewParallel(workers)
	}
	return out
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
	variants := parallelVariants()
	for _, s := range shapes {
		a := Rand(rng, -1, 1, s.m, s.k)
		b := Rand(rng, -1, 1, s.k, s.n)
		// Sparsify a few entries so exact-zero terms are exercised.
		a.Data()[0] = 0
		if s.m*s.k > 3 {
			a.Data()[3] = 0
		}
		aT := transpose2D(a) // [k, m]
		bT := transpose2D(b) // [n, k]

		ref, refTA, refTB := New(s.m, s.n), New(s.m, s.n), New(s.m, s.n)
		Serial{}.MatMulInto(ref, a, b)
		Serial{}.MatMulTAInto(refTA, aT, b)
		Serial{}.MatMulTBInto(refTB, a, bT)
		for i, p := range variants {
			label := fmt.Sprintf("m=%d k=%d n=%d workers=%d", s.m, s.k, s.n, variantWorkers[i])
			got := New(s.m, s.n)
			if p.MatMulInto(got, a, b); !got.Equal(ref) {
				t.Errorf("MatMul not bit-identical to serial (%s)", label)
			}
			if p.MatMulTAInto(got, aT, b); !got.Equal(refTA) {
				t.Errorf("MatMulTA not bit-identical to serial (%s)", label)
			}
			if p.MatMulTBInto(got, a, bT); !got.Equal(refTB) {
				t.Errorf("MatMulTB not bit-identical to serial (%s)", label)
			}
		}
	}
}

// TestGemmBackendParityConcurrentCallers drives one parallel backend from
// many goroutines at once, as the pipelined engine's devices do: calls on
// both sides of the dispatch floor, 2-D, batched and conv, each share
// recycled per-call state with the pool's workers and must still be
// bit-identical to serial. Run under -race it also proves the recycling
// safe.
func TestGemmBackendParityConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewParallel(3)
	type call struct {
		run  func(be Backend, out *Tensor)
		want *Tensor
	}
	var calls []call
	add := func(out *Tensor, run func(be Backend, out *Tensor)) {
		run(Serial{}, out)
		calls = append(calls, call{run, out})
	}
	for _, s := range []struct{ m, k, n int }{{65, 33, 29}, {6, 54, 512}, {3, 5, 4}} {
		a, b := Rand(rng, -1, 1, s.m, s.k), Rand(rng, -1, 1, s.k, s.n)
		add(New(s.m, s.n), func(be Backend, out *Tensor) { be.MatMulInto(out, a, b) })
	}
	ga, gb := Rand(rng, -1, 1, 16, 16, 8), Rand(rng, -1, 1, 16, 8, 16)
	add(New(16, 16, 16), func(be Backend, out *Tensor) { be.MatMulBatchInto(out, ga, gb) })
	x, w := Rand(rng, -1, 1, 4, 6, 8, 8), Rand(rng, -1, 1, 6, 6*3*3)
	add(New(4, 6, 8, 8), func(be Backend, out *Tensor) { be.ConvForwardInto(out, w, x, 3, 3, 1, 1) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				c := calls[(g+iter)%len(calls)]
				got := New(c.want.Shape()...)
				if c.run(p, got); !got.Equal(c.want) {
					t.Errorf("goroutine %d: call %d not bit-identical to serial", g, (g+iter)%len(calls))
					return
				}
			}
		}()
	}
	wg.Wait()
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
	variants := parallelVariants()
	for _, cse := range cases {
		x := Rand(rng, -1, 1, cse.n, cse.c, cse.h, cse.w)
		oh, ow := ConvOutSize(cse.h, cse.k, cse.stride, cse.pad), ConvOutSize(cse.w, cse.k, cse.stride, cse.pad)
		refCols, refBack := New(cse.c*cse.k*cse.k, cse.n*oh*ow), New(cse.n, cse.c, cse.h, cse.w)
		Serial{}.Im2ColInto(refCols, x, cse.k, cse.k, cse.stride, cse.pad)
		Serial{}.Col2ImInto(refBack, refCols, cse.k, cse.k, cse.stride, cse.pad)
		for i, p := range variants {
			label := fmt.Sprintf("%+v workers=%d", cse, variantWorkers[i])
			cols, back := New(refCols.Shape()...), New(refBack.Shape()...)
			if p.Im2ColInto(cols, x, cse.k, cse.k, cse.stride, cse.pad); !cols.Equal(refCols) {
				t.Errorf("Im2Col not bit-identical to serial (%s)", label)
			}
			if p.Col2ImInto(back, cols, cse.k, cse.k, cse.stride, cse.pad); !back.Equal(refBack) {
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
	for i, p := range parallelVariants() {
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
				t.Errorf("%s not bit-identical to serial (workers=%d)", name, variantWorkers[i])
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

// TestPooledCallsDoNotAllocate: a pooled call recycles its job — the
// cursor, the chunk count, what a worker runs — once the last runner that
// took it has exited, so a warm call allocates nothing, and a recycled
// job still visits every index exactly once.
func TestPooledCallsDoNotAllocate(t *testing.T) {
	pool := NewPool(2)
	seen := make([]int, 1000)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	}
	call := func() { pool.ParallelFor(len(seen), 16, body) }
	call()
	const runs = 100
	if got := testing.AllocsPerRun(runs, call); got != 0 {
		t.Errorf("a pooled ParallelFor allocates %v times a call once warm, want 0", got)
	}
	for i, c := range seen {
		if c != runs+2 { // AllocsPerRun calls once more, untimed
			t.Fatalf("index %d visited %d times in %d calls", i, c, runs+2)
		}
	}
}

// TestArenaReuse checks that a Get after a Reset returns the backing
// array of the Get before it and that shape bookkeeping survives the
// round trip.
func TestArenaReuse(t *testing.T) {
	ar := NewArena()
	a := ar.Get(4, 6)
	a.Fill(3)
	ar.Reset()
	b := ar.Get(6, 4) // same element count, different shape
	if &b.Data()[0] != &a.Data()[0] {
		t.Fatal("arena did not recycle the buffer after Reset")
	}
	if b.Dim(0) != 6 || b.Dim(1) != 4 {
		t.Fatalf("recycled tensor has shape %v, want [6 4]", b.Shape())
	}
	z := ar.GetZeroed(6, 4)
	if &z.Data()[0] == &b.Data()[0] {
		t.Fatal("two tensors of one generation share a buffer")
	}
	for _, v := range z.Data() {
		if v != 0 {
			t.Fatal("GetZeroed returned dirty buffer")
		}
	}
}

// TestArenaResetRecyclesTheStep: Reset is the one way a tensor's life
// ends. It takes back everything handed out since the last one, in
// request order, and ticks the generation; Poison reaches exactly what
// it freed.
func TestArenaResetRecyclesTheStep(t *testing.T) {
	ar := NewArena()
	a, b, c := ar.Get(2, 3), ar.Get(3, 2), ar.Get(5)
	if g := ar.Generation(); g != 0 {
		t.Fatalf("generation %d before any Reset", g)
	}
	a.Fill(1)
	ar.Poison()
	if a.Data()[0] != 1 {
		t.Fatal("Poison reached a tensor still handed out")
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
	if x != a || y != b || z == a || z == b {
		t.Fatal("Reset did not return both six-element tensors, each once, in request order")
	}
	for _, v := range y.Data() {
		if v != 0 {
			t.Fatal("GetZeroed returned a poisoned buffer")
		}
	}
	if ar.Get(1, 5) != c {
		t.Fatal("Reset did not return the five-element tensor")
	}
	ar.Reset()
	if ar.Generation() != 2 || ar.Get(3, 2) != a || ar.Get(5, 1) != c {
		t.Fatal("a second Reset did not recycle the same backing arrays")
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
	ar.Reset()
	if ar.Generation() != 0 || a.Data()[0] != 0 {
		t.Fatal("Reset must do nothing on a nil arena")
	}
	if c := ar.Get(2, 2); c == a || c == b {
		t.Fatal("a nil arena recycled a tensor")
	}
}

// TestSerialGemmsDoNotAllocate: once its pack arena holds the shapes, a
// serial call of every GEMM entry point allocates nothing — the operand
// descriptor rides the stack and the pack buffers come from the arena —
// on whole tiles, on an edge-only shape and on a tiny one.
func TestSerialGemmsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := func(shape ...int) *Tensor { return Rand(rng, -1, 1, shape...) }
	cases := map[string]func(){}
	for _, s := range []struct{ m, k, n int }{{64, 96, 128}, {6, 27, 512}, {2, 3, 4}} {
		a, aT, b, bT, out := r(s.m, s.k), r(s.k, s.m), r(s.k, s.n), r(s.n, s.k), New(s.m, s.n)
		label := fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n)
		cases["MatMulInto "+label] = func() { Serial{}.MatMulInto(out, a, b) }
		cases["MatMulTAInto "+label] = func() { Serial{}.MatMulTAInto(out, aT, b) }
		cases["MatMulTBInto "+label] = func() { Serial{}.MatMulTBInto(out, a, bT) }
	}
	for _, s := range []struct{ g, m, k, n int }{{16, 16, 8, 16}, {4, 6, 6, 6}, {3, 1, 8, 1}} {
		a, aT := r(s.g, s.m, s.k), r(s.g, s.k, s.m)
		b, bT, out := r(s.g, s.k, s.n), r(s.g, s.n, s.k), New(s.g, s.m, s.n)
		label := fmt.Sprintf("%dx%dx%dx%d", s.g, s.m, s.k, s.n)
		cases["MatMulBatchInto "+label] = func() { Serial{}.MatMulBatchInto(out, a, b) }
		cases["MatMulTABatchInto "+label] = func() { Serial{}.MatMulTABatchInto(out, aT, b) }
		cases["MatMulTBBatchInto "+label] = func() { Serial{}.MatMulTBBatchInto(out, a, bT) }
	}
	x, w, y, g := r(4, 6, 8, 8), r(6, 6*3*3), New(4, 6, 8, 8), r(6, 4*8*8)
	cases["ConvForwardInto"] = func() { Serial{}.ConvForwardInto(y, w, x, 3, 3, 1, 1) }
	cases["ConvGradWeightInto"] = func() { Serial{}.ConvGradWeightInto(w, g, x, 3, 3, 1, 1) }
	for name, call := range cases {
		call() // size the arena
		if got := testing.AllocsPerRun(20, call); got != 0 {
			t.Errorf("%s allocates %v times a call once warm, want 0", name, got)
		}
	}
}

// TestArenasSurviveCollections: what a kernel call borrows outlasts
// garbage collections — a bare sync.Pool loses it to two of them — and
// the cache that keeps it never keeps more than its cap.
func TestArenasSurviveCollections(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// A GEMM with 49 KB of B panels and an m = 6 conv, which reads its
	// taps in place from a 31 KB zero-bordered copy of its input. Every
	// borrow is a buffer for B: A is read in place, and so is a small
	// row-major B, which borrows nothing.
	a, b, out := Randn(rng, 0, 1, 64, 96), Randn(rng, 0, 1, 96, 128), New(64, 128)
	w, x, y := Randn(rng, 0, 1, 6, 27), Randn(rng, 0, 1, 8, 3, 16, 16), New(8, 6, 16, 16)
	if o := matMulOperands("TestArenasSurviveCollections", layoutAB, 2, out, a, b); o.bInPlace() {
		t.Fatal("the GEMM reads B in place: it no longer borrows a pack buffer")
	}
	kernels := func() {
		Serial{}.MatMulInto(out, a, b)
		Serial{}.ConvForwardInto(y, w, x, 3, 3, 1, 1)
	}
	collect := func() {
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
	}
	// Two rounds: the first call may be served by an arena other than the
	// one a serial caller finds once the per-P front has been emptied.
	for i := 0; i < 2; i++ {
		kernels()
		collect()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	kernels()
	runtime.ReadMemStats(&m1)
	// The front's own bookkeeping is re-made after a collection: a few KB.
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 16<<10 {
		t.Errorf("two kernel calls after three collections allocated %d B: a B buffer was dropped", got)
	}

	// More borrowers at once than the cap, each borrowing again and again
	// as a kernel does, writing to what it borrowed (the race detector sees
	// an arena lent twice) and holding its last loan until all have one.
	var c ArenaCache
	lent := make([]*Arena, arenaCacheCap+8)
	var wg sync.WaitGroup
	for i := range lent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				ar := c.getLocal()
				ar.Get(16).Fill(float32(i))
				c.putLocal(ar)
			}
			lent[i] = c.getLocal()
			lent[i].Get(16)
		}()
	}
	wg.Wait()
	seen := map[*Arena]bool{}
	for _, ar := range lent {
		if seen[ar] {
			t.Fatal("one arena lent to two borrowers at once")
		}
		seen[ar] = true
		c.putLocal(ar)
	}
	if len(c.kept) != arenaCacheCap {
		t.Fatalf("cache keeps %d arenas, cap %d", len(c.kept), arenaCacheCap)
	}
	collect()
	for range arenaCacheCap {
		if ar := c.getLocal(); !slices.Contains(c.kept, ar) || len(ar.classes[16].bufs) != 1 {
			t.Fatal("a kept arena did not survive the collections with its buffer")
		}
	}
	if len(c.kept) != arenaCacheCap {
		t.Fatalf("cache keeps %d arenas after re-borrowing, cap %d", len(c.kept), arenaCacheCap)
	}
}
