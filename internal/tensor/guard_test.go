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

// guardedFront returns n floats that start right after a PROT_NONE page,
// so a read of even one float before their start faults. The mapping is
// released when t ends.
func guardedFront(t *testing.T, n int) []float32 {
	page := syscall.Getpagesize()
	data := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, page+data, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[page])), n)
}

// guardedCopy returns x's values in a guarded tensor of x's shape.
func guardedCopy(t *testing.T, x *Tensor) *Tensor {
	g := FromSlice(guarded(t, len(x.data)), x.shape...)
	copy(g.data, x.data)
	return g
}

// TestGemmReadsStayInsideOperands runs every layout through the
// assembly kernel of every tier the host has with each operand — A, B
// and the output — ending flush against an unmapped page, so a read one
// float past an operand's end faults. Go cannot bounds-check the
// assembly, so this is what shows that the in-place reads stay inside
// the operand they describe, and the writes inside the output: an edge
// tile reads A rows < rows only and moves only its rows×w corner of the
// output, its masked lanes past w never faulting. The shapes put B on
// both sides of inPlaceBMax with whole tiles, end B with the second
// panel of a pair and with a lone panel, leave ragged rows and columns
// (raggedShapes: every row count short of a tile, and outputs that end
// mid-panel), and span several kcBlocks with B in place and packed;
// every result must equal the reference kernels' bit for bit, serially
// and on a pool. Then every rows×w tile of a panel pair runs with its
// output's last row and B's last row of its last panel flush against the
// page.
func TestGemmReadsStayInsideOperands(t *testing.T) {
	var tiers []kernelTier
	for _, k := range hostTiers(t) {
		if k != tierGeneric {
			tiers = append(tiers, k)
		}
	}
	if len(tiers) == 0 {
		t.Skip("no AVX: the generic kernel runs, and Go bounds-checks it")
	}
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, k := range tiers {
		tier = k
		t.Run(k.String(), gemmReadsStayInsideOperands)
	}
}

func gemmReadsStayInsideOperands(t *testing.T) {
	pool := NewPool(2)
	rng := rand.New(rand.NewSource(31))
	kAt := inPlaceBMax / 64 // k at which k·n reaches the bound for n = 64
	type shape struct {
		g, m, k, n int
		inPlace    bool // whether layout AB reads B in place
	}
	shapes := []shape{
		{1, 16, kAt, 64, true},            // whole tiles, B at the bound
		{1, 16, kAt + 8, 64, false},       // whole tiles, B just past it
		{2, 32, 32, 16, true},             // the attention batches' shape
		{1, 13, 40, 21, false},            // ragged rows and columns
		{3, 21, 33, 16, true},             // ragged rows, B in place
		{1, 24, 35, 19, false},            // whole row tiles, ragged columns
		{1, 16, 40, 24, true},             // B in place ends with a lone panel
		{1, 16, kcBlock + 8, 8, true},     // two kcBlocks, B in place
		{1, 9, kcBlock + 8, 8, true},      // the same with a ragged row tile
		{1, 16, 2*kcBlock + 8, 16, false}, // three kcBlocks, B packed
	}
	for _, r := range raggedShapes {
		shapes = append(shapes, shape{1, r.m, r.k, r.n, r.n%nrTile == 0})
	}
	for _, s := range shapes {
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
				gemm(p, o)
				if diff := bitsDiff(out, want); diff != "" {
					t.Fatalf("%s: %s", label, diff)
				}
			}
		}
	}

	// Tile by tile: the output's last row ends at its w-th float, so the
	// lanes the mask drops lie on the page; B ends with the last row of
	// the pair's second panel (the conv pair's distance, across an output
	// row), or of a lone panel when w ≤ nrTile; A ends with its last row.
	const pc, pair = 5, nrTile + 2
	for rows := 1; rows <= mrTile; rows++ {
		for w := 1; w <= tileWidth; w++ {
			for _, acc := range []bool{false, true} {
				d := microOperands{boff: rowOffsets(pc, tileWidth+3), pair: pair, rs: pc, ps: 1}
				if w <= nrTile {
					d.pair = 0
				}
				d.a = guarded(t, (rows-1)*pc+pc)
				d.b = guarded(t, int(d.boff[pc-1])+d.pair+nrTile)
				copy(d.a, Rand(rng, -2, 2, len(d.a)).data)
				copy(d.b, Rand(rng, -2, 2, len(d.b)).data)
				const ldo = tileWidth + 5
				start := Rand(rng, -2, 2, (rows-1)*ldo+w).data
				want := append([]float32(nil), start...)
				microGeneric(want, ldo, &d, pc, rows, w, acc)
				got := guarded(t, len(start))
				copy(got, start)
				microKernel(got, ldo, &d, pc, rows, w, acc)
				if diff := bitsDiff(FromSlice(got, len(got)), FromSlice(want, len(want))); diff != "" {
					t.Fatalf("tile rows=%d w=%d accumulate=%v pair=%d: %s", rows, w, acc, d.pair, diff)
				}
			}
		}
	}

	// The conv forward is a batch of per-image GEMMs that share their A,
	// the weights (instance stride 0): 6 rows leave one ragged tile, 16
	// none. It writes NCHW, so the output's last image's last plane ends
	// at the page. A stride-1 forward at output width 8 or 16 reads image
	// q's B in place: with pad 1 from a bordered copy, with pad 0 from x
	// itself, whose last image's last plane then ends at the page under
	// the last panel's last tap. At ow 9 the forward packs each image's
	// panels. The weight gradient reads the output gradient in place as A.
	for _, c := range []struct {
		hw, k, pad int
		inPlace    bool
	}{
		{9, 3, 1, false}, {8, 3, 1, true}, {16, 3, 1, true},
		{10, 3, 0, true}, {18, 3, 0, true}, {16, 1, 0, true}, {8, 1, 0, true}, {9, 1, 0, false},
	} {
		x := Rand(rng, -2, 2, 2, 3, c.hw, c.hw)
		ow := ConvOutSize(c.hw, c.k, 1, c.pad)
		K, S := 3*c.k*c.k, 2*ow*ow
		cols := New(K, S)
		Serial{}.Im2ColInto(cols, x, c.k, c.k, 1, c.pad)
		gx := guardedCopy(t, x)
		for _, m := range []int{6, 16} {
			label := fmt.Sprintf("%d×%d k%d pad %d m=%d", c.hw, c.hw, c.k, c.pad, m)
			w, grad := Rand(rng, -2, 2, m, K), Rand(rng, -2, 2, m, S)
			flat, wantDW := New(m, S), New(m, K)
			matMulRowsRef(flat.data, w.data, cols.data, K, S, 0, m)
			matMulTBRowsRef(wantDW.data, grad.data, cols.data, S, K, 0, m)
			wantFwd := nchwOf(flat, 2, ow, ow)
			gw, ggrad := guardedCopy(t, w), guardedCopy(t, grad)
			fwd := FromSlice(guarded(t, m*S), 2, m, ow, ow)
			if o := convOperands("TestGemmReadsStayInsideOperands", layoutConv, fwd, gw, gx, c.k, c.k, 1, c.pad); o.bInPlace() != c.inPlace || o.as != 0 {
				t.Fatalf("%s: forward B read in place = %v, A stride %d; the case wants %v, 0", label, o.bInPlace(), o.as, c.inPlace)
			}
			for _, p := range []*Pool{nil, pool} {
				backendOf(p).ConvForwardInto(fwd, gw, gx, c.k, c.k, 1, c.pad)
				if diff := bitsDiff(fwd, wantFwd); diff != "" {
					t.Fatalf("ConvForwardInto %s pooled=%v: %s", label, p != nil, diff)
				}
				dw := FromSlice(guarded(t, m*K), m, K)
				backendOf(p).ConvGradWeightInto(dw, ggrad, gx, c.k, c.k, 1, c.pad)
				if diff := bitsDiff(dw, wantDW); diff != "" {
					t.Fatalf("ConvGradWeightInto %s pooled=%v: %s", label, p != nil, diff)
				}
			}
		}
	}

	// A 1×1, stride-1, unpadded conv's weight gradient packs x in 8×8
	// transposes: x's last image's last channel plane ends at the page
	// under the last tile of the last panel, whole (C 16) or partial (C 6,
	// whose rows past the sixth must not be read), at 8×8 positions and
	// at 7×7, whose one position past the tiles the loop takes.
	for _, c := range []struct{ c, hw int }{{16, 8}, {6, 8}, {16, 7}, {6, 7}} {
		const n, m = 2, 6
		x := Rand(rng, -2, 2, n, c.c, c.hw, c.hw)
		S := n * c.hw * c.hw
		cols, grad, want := New(c.c, S), Rand(rng, -2, 2, m, S), New(m, c.c)
		Serial{}.Im2ColInto(cols, x, 1, 1, 1, 0)
		matMulTBRowsRef(want.data, grad.data, cols.data, S, c.c, 0, m)
		gx, ggrad := guardedCopy(t, x), guardedCopy(t, grad)
		for _, p := range []*Pool{nil, pool} {
			dw := FromSlice(guarded(t, m*c.c), m, c.c)
			backendOf(p).ConvGradWeightInto(dw, ggrad, gx, 1, 1, 1, 0)
			if diff := bitsDiff(dw, want); diff != "" {
				t.Fatalf("1×1 weight gradient %+v pooled=%v: %s", c, p != nil, diff)
			}
		}
	}

	// A 1×1, stride-1, unpadded conv's input gradient is the forward of
	// its NCHW gradient by Wᵀ: the gradient (read in place at a width of
	// whole panels, packed at 9), Wᵀ and dx each end at the page, and dx
	// must equal the column route, Col2Im of Wᵀ·grad, bit for bit.
	for _, c := range []struct{ n, outC, inC, hw int }{{2, 16, 16, 16}, {2, 6, 6, 8}, {2, 6, 3, 8}, {2, 16, 5, 9}} {
		w := Rand(rng, -2, 2, c.outC, c.inC)
		grad := Rand(rng, -2, 2, c.n, c.outC, c.hw, c.hw)
		S := c.n * c.hw * c.hw
		dFlat, dCols := New(c.outC, S), New(c.inC, S)
		Serial{}.Im2ColInto(dFlat, grad, 1, 1, 1, 0)
		matMulTARowsRef(dCols.data, w.data, dFlat.data, c.outC, c.inC, S, 0, c.inC)
		want := New(c.n, c.inC, c.hw, c.hw)
		Serial{}.Col2ImInto(want, dCols, 1, 1, 1, 0)
		wt := FromSlice(guarded(t, c.inC*c.outC), c.inC, c.outC)
		for o := 0; o < c.outC; o++ {
			for ci := 0; ci < c.inC; ci++ {
				wt.data[ci*c.outC+o] = w.data[o*c.inC+ci]
			}
		}
		ggrad := guardedCopy(t, grad)
		for _, p := range []*Pool{nil, pool} {
			dx := FromSlice(guarded(t, len(want.data)), want.shape...)
			backendOf(p).ConvForwardInto(dx, wt, ggrad, 1, 1, 1, 0)
			if diff := bitsDiff(dx, want); diff != "" {
				t.Fatalf("1×1 input gradient %+v pooled=%v: %s", c, p != nil, diff)
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
	if tier == tierGeneric {
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

// TestDWConvReadsStayInsideOperands runs the depthwise lanes of every
// vector tier the host has with x, w, grad, out, dx and dW each ending
// flush against an unmapped page, and then with x, w, grad and dW
// starting right after one instead: a lane reads one float before a row
// at kj = 0 with pad 1 and past it at the last tap, so a load that is
// not masked off at the first or last row faults, as does a store past
// the last row of out or dx. Every width 1–17 and 31–33 (dwGuardWidths)
// puts a row's end at every lane of a block and past one; heights 1–9
// and pads 0–2 leave rows whose kernel rows are clipped at the top, the
// bottom and both, and every remainder of the 16-lane kernels' tiles of
// four rows (3×3 only: other kernels run the 8-lane ones on both tiers,
// at heights 1–4 and widths 1–17). The AVX weight gradient's channel
// groups read and write whole sums of nine taps: channels 1–5 start the
// first group's sums at the page and end the last group's, ragged or
// whole, at it; the AVX-512 one stages the group's planes of x and grad,
// the last ending at the page. The results must equal the row-run
// loops' bit for bit.
func TestDWConvReadsStayInsideOperands(t *testing.T) {
	var tiers []kernelTier
	for _, k := range hostTiers(t) {
		if k != tierGeneric {
			tiers = append(tiers, k)
		}
	}
	if len(tiers) == 0 {
		t.Skip("no AVX: the row-run loops run, and Go bounds-checks them")
	}
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, k := range tiers {
		t.Run(k.String(), func(t *testing.T) { dwConvReadsStayInsideOperands(t, k) })
	}
}

func dwConvReadsStayInsideOperands(t *testing.T, lanes kernelTier) {
	rng := rand.New(rand.NewSource(35))
	for _, k := range []int{1, 3, 5} {
		for pad := 0; pad <= 2; pad++ {
			for h := 1; h <= 9; h++ {
				for _, w := range dwGuardWidths {
					if k != 3 && (h > 4 || w > 17) {
						continue // the AVX kernels, 3×3 only on tierAVX512
					}
					if ConvOutSize(h, k, 1, pad) <= 0 || ConvOutSize(w, k, 1, pad) <= 0 {
						continue
					}
					// One subtest per image, so its pages are unmapped
					// before the next one maps more.
					t.Run(fmt.Sprintf("k%d/pad%d/%dx%d", k, pad, h, w), func(t *testing.T) {
						dwImageReadsStayInsideOperands(t, rng, lanes, k, pad, h, w)
					})
				}
			}
		}
	}
}

func dwImageReadsStayInsideOperands(t *testing.T, rng *rand.Rand, lanes kernelTier, k, pad, h, w int) {
	// front copies x's values into a tensor of its shape that starts
	// right after an unmapped page.
	front := func(x *Tensor) *Tensor {
		g := FromSlice(guardedFront(t, len(x.data)), x.shape...)
		copy(g.data, x.data)
		return g
	}
	for c := 1; c <= 5; c++ {
		d := newDWConvCase(rng, 1, c, h, w, k, 1, pad, false)
		tier = tierGeneric
		want := New(d.grad.shape...)
		DWConvForwardInto(want, d.w, d.x, 1, pad)
		wantDX, wantDW := New(d.x.shape...), d.seed.Clone()
		DWConvBackwardInto(wantDX, wantDW, d.grad, d.w, d.x, 1, pad)
		tier = lanes
		for _, atFront := range []bool{false, true} {
			label := fmt.Sprintf("k%d pad %d %dx%d c%d front=%v", k, pad, h, w, c, atFront)
			x, grad, wt, dw := guardedCopy(t, d.x), guardedCopy(t, d.grad), guardedCopy(t, d.w), guardedCopy(t, d.seed)
			if atFront {
				x, grad, wt, dw = front(d.x), front(d.grad), front(d.w), front(d.seed)
			}
			out := FromSlice(guarded(t, len(want.data)), want.shape...)
			DWConvForwardInto(out, wt, x, 1, pad)
			if diff := bitsDiff(out, want); diff != "" {
				t.Fatalf("%s forward: %s", label, diff)
			}
			dx := FromSlice(guarded(t, len(wantDX.data)), wantDX.shape...)
			DWConvBackwardInto(dx, dw, grad, wt, x, 1, pad)
			if diff := bitsDiff(dx, wantDX); diff != "" {
				t.Fatalf("%s dx: %s", label, diff)
			}
			if diff := bitsDiff(dw, wantDW); diff != "" {
				t.Fatalf("%s dW: %s", label, diff)
			}
		}
	}
}

// TestChannelTailReadsStayInsideOperands runs the channel-tail and ReLU
// gate lanes under every mode with each operand — src and dst, and grad,
// out and dst for the gate — ending flush against an unmapped page, at
// lengths that leave every tail of 0–7 floats after the whole groups of
// eight: a vector load or store past the last whole group faults. The
// results must equal the scalar loops' bit for bit, apart and in place.
func TestChannelTailReadsStayInsideOperands(t *testing.T) {
	if tier == tierGeneric {
		t.Skip("no AVX: the scalar loops run, and Go bounds-checks them")
	}
	inputs := tailInputs(rand.New(rand.NewSource(36)), 4200)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
		64, 256, 4097, 4098, 4099, 4100, 4101, 4102, 4103} {
		for _, tc := range tailCases() {
			src, dst := guarded(t, n), guarded(t, n)
			copy(src, inputs)
			_, _, want := tailBoth(src, tc)
			ChannelTailInto(dst, src, tc)
			if diff := bitsMismatch(src, dst, want); diff != "" {
				t.Fatalf("%+v n=%d: %s", tc, n, diff)
			}
			in := append([]float32(nil), src...)
			ChannelTailInto(src, src, tc)
			if diff := bitsMismatch(in, src, want); diff != "" {
				t.Fatalf("%+v n=%d in place: %s", tc, n, diff)
			}
		}
		grad, out, dst := guarded(t, n), guarded(t, n), guarded(t, n)
		copy(grad, inputs[n:])
		channelTailGeneric(out, inputs[:n], ChannelTail{ReLU: true})
		_, _, want := gateBoth(grad, out)
		ReLUGateInto(dst, grad, out)
		if diff := bitsMismatch(grad, dst, want); diff != "" {
			t.Fatalf("ReLUGateInto n=%d: %s", n, diff)
		}
		in := append([]float32(nil), grad...)
		ReLUGateInto(grad, grad, out)
		if diff := bitsMismatch(in, grad, want); diff != "" {
			t.Fatalf("ReLUGateInto n=%d in place: %s", n, diff)
		}
	}
}

// guarded64 is guarded for float64s.
func guarded64(t *testing.T, n int) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(&guarded(t, 2*n)[0])), n)
}

// guardedRows returns c with every operand copied to memory that ends at
// an unmapped page.
func guardedRows(t *testing.T, c *rowOperands) *rowOperands {
	g := *c
	for _, p := range []*[]float32{&g.x, &g.grad, &g.xhat, &g.probs, &g.th, &g.gain, &g.bias, &g.dGain, &g.dBias} {
		s := guarded(t, len(*p))
		copy(s, *p)
		*p = s
	}
	g.invStd = guarded64(t, len(c.invStd))
	copy(g.invStd, c.invStd)
	return &g
}

// TestRowKernelsReadsStayInsideOperands runs every row kernel's lanes
// with each operand and each output ending flush against an unmapped
// page: the per-column parameters (gain, bias, the gradient sums) as well
// as the rows, at every row length of rowLengths and at row counts around
// the groups of four. A row lane that gathers past the last row, or an
// element lane that loads or stores past the last whole group of a row,
// faults. The results must equal the scalar loops' bit for bit.
func TestRowKernelsReadsStayInsideOperands(t *testing.T) {
	if tier == tierGeneric {
		t.Skip("no AVX: the scalar loops run, and Go bounds-checks them")
	}
	rng := rand.New(rand.NewSource(54))
	guardAlloc := func(t *testing.T) rowAlloc {
		return rowAlloc{
			f32: func(n int) []float32 { return guarded(t, n) },
			f64: func(n int) []float64 { return guarded64(t, n) },
		}
	}
	for _, d := range rowLengths {
		for _, rows := range []int{1, 3, 4, 5, 8, 9} {
			t.Run(fmt.Sprintf("d=%d/rows=%d", d, rows), func(t *testing.T) {
				c := guardedRows(t, newRowOperands(rng, rows, d, rowMixes[1]))
				for _, k := range rowKernels {
					if diff := lanesAndGeneric(k, c, guardAlloc(t)); diff != "" {
						t.Fatalf("%s: %s", k.name, diff)
					}
				}
			})
		}
	}
}

// dwGuardWidths end a row at every lane of a 16-lane block and past one,
// and at both sides of the second block's end.
var dwGuardWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33}
