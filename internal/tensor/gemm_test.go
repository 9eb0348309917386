package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file pins the packed GEMM engine bit-for-bit to the retained
// reference kernels on adversarial inputs: odd/prime dimensions, shapes
// smaller than the register tile, reductions spanning multiple kcBlock
// tiles, and values containing ±0, NaN and ±Inf. Comparisons are on raw
// float bits (math.Float32bits), so NaN payloads and zero signs count.

// packedMatMul runs the packed engine unconditionally (no small-size
// dispatch) on an m×n GEMM of the given layout, serially or over a pool.
func packedMatMul(pool *Pool, layout gemmLayout, a, b *Tensor, m, n int) *Tensor {
	out := New(m, n)
	o := matMulOperands("packedMatMul", layout, 2, out, a, b)
	gemmPacked(pool, &o)
	return out
}

// bitsDiff compares raw float bits. One carve-out: when both sides are
// NaN they compare equal regardless of payload — if two NaNs meet in an
// add, IEEE 754 leaves the surviving payload implementation-defined and
// Go's instruction selection (not our kernels) picks the operand order,
// so payload identity is not a property the language lets us pin. Zero
// signs, infinities, and whether an element is NaN at all must match
// exactly.
func bitsDiff(got, want *Tensor) string {
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		return fmt.Sprintf("length %d vs %d", len(gd), len(wd))
	}
	for i := range gd {
		gn, wn := math.IsNaN(float64(gd[i])), math.IsNaN(float64(wd[i]))
		if gn && wn {
			continue
		}
		if gn != wn || math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			return fmt.Sprintf("element %d: got %v (%#08x), want %v (%#08x)",
				i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
	return ""
}

// adversarialShapes covers dims below the register tile, primes, exact
// tile multiples, reductions spanning several kcBlock tiles, and the ring
// workloads' m = 6 conv GEMMs (forward, 1×1 forward and dX, 1×1 dW), whose
// every tile has an edge.
var adversarialShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{2, 3, 2},
	{3, 5, 7},           // everything below the tile
	{mrTile, 8, nrTile}, // exactly one full tile
	{5, 9, 11},
	{13, 17, 19}, // primes
	{31, 64, 9},
	{16, kcBlock + 1, 40},        // k one past a block boundary
	{7, 2*kcBlock + 17, 23},      // k spanning three blocks
	{mrTile + 1, 33, nrTile + 1}, // one past the tile
	{64, 300, 65},
	{6, 27, 512},
	{6, 54, 1024},
	{6, 512, 6},
	{6, 6, 512},
}

// fillAdversarial seeds t with random values plus ±0, NaN and ±Inf
// sprinkled at deterministic positions. which selects the special set so
// callers can put NaNs in one operand and infinities in the other.
func fillAdversarial(rng *rand.Rand, t *Tensor, which int) {
	d := t.Data()
	for i := range d {
		d[i] = rng.Float32()*4 - 2
	}
	specials := [][]float32{
		{0, float32(math.Copysign(0, -1)), 0},
		{float32(math.NaN()), 0, float32(math.Copysign(0, -1))},
		{float32(math.Inf(1)), float32(math.Inf(-1)), 0},
	}
	set := specials[which%len(specials)]
	for i, v := range set {
		pos := (i*7 + 3) % len(d)
		d[pos] = v
	}
}

// TestPackedKernelsMatchReferenceBits is the satellite bit-equivalence
// suite: the packed engine (assembly and generic microkernels, serial
// and pooled schedules) must reproduce the retained reference kernels
// exactly on every adversarial shape and value class.
func TestPackedKernelsMatchReferenceBits(t *testing.T) {
	pools := []*Pool{nil, NewPool(3)}
	asmModes := []bool{false}
	if useAVX { // true exactly where an assembly microkernel is built
		asmModes = append(asmModes, true)
	}
	defer func(prev bool) { useAVX = prev }(useAVX)
	rng := rand.New(rand.NewSource(99))
	for _, s := range adversarialShapes {
		for which := 0; which < 3; which++ {
			a := New(s.m, s.k)
			b := New(s.k, s.n)
			fillAdversarial(rng, a, which)
			fillAdversarial(rng, b, which+1)
			aT := transpose2D(a)
			bT := transpose2D(b)

			ref := New(s.m, s.n)
			matMulRowsRef(ref.data, a.data, b.data, s.k, s.n, 0, s.m)
			refTA := New(s.m, s.n)
			matMulTARowsRef(refTA.data, aT.data, b.data, s.k, s.m, s.n, 0, s.m)
			refTB := New(s.m, s.n)
			matMulTBRowsRef(refTB.data, a.data, bT.data, s.k, s.n, 0, s.m)

			for _, asm := range asmModes {
				useAVX = asm
				for _, pool := range pools {
					label := fmt.Sprintf("m=%d k=%d n=%d specials=%d asm=%v pooled=%v",
						s.m, s.k, s.n, which, asm, pool != nil)
					if diff := bitsDiff(packedMatMul(pool, layoutAB, a, b, s.m, s.n), ref); diff != "" {
						t.Errorf("MatMul packed != reference (%s): %s", label, diff)
					}
					if diff := bitsDiff(packedMatMul(pool, layoutTA, aT, b, s.m, s.n), refTA); diff != "" {
						t.Errorf("MatMulTA packed != reference (%s): %s", label, diff)
					}
					if diff := bitsDiff(packedMatMul(pool, layoutTB, a, bT, s.m, s.n), refTB); diff != "" {
						t.Errorf("MatMulTB packed != reference (%s): %s", label, diff)
					}
				}
			}
		}
	}
}

// tileDescription is one way the engine may hand the microkernel a
// tile's operands.
type tileDescription struct {
	name string
	ops  microOperands
}

// tileDescriptions lays a tile's operands — A element (r, p) at
// av[p*mrTile+r] and B element (p, c) at bv[p*nrTile+c], for pc terms —
// out every way the engine hands them to the microkernel: A as a packed
// strip, in place as rows longer than the tile (rs > pc), or in place as
// the leading columns of a wider [pc, m] operand (ps = m); B as a packed
// panel, or in place as the leading columns of a wider [pc, n] operand
// (ldb = n). Every float of an in-place operand outside the tile holds
// fill.
func tileDescriptions(av, bv []float32, pc int, fill float32) []tileDescription {
	const gap = 3 // floats of fill past the tile in each row or column
	rs, m, n := pc+gap, mrTile+gap, nrTile+gap
	rowA, colA, rowB := Full(fill, mrTile*rs).data, Full(fill, pc*m).data, Full(fill, pc*n).data
	for p := 0; p < pc; p++ {
		for r := 0; r < mrTile; r++ {
			rowA[r*rs+p], colA[p*m+r] = av[p*mrTile+r], av[p*mrTile+r]
		}
		copy(rowB[p*n:p*n+nrTile], bv[p*nrTile:])
	}
	as := []struct {
		name   string
		a      []float32
		rs, ps int
	}{{"packed A", av, 1, mrTile}, {"row-major A", rowA, rs, 1}, {"column A", colA, 1, m}}
	bs := []struct {
		name string
		b    []float32
		ldb  int
	}{{"packed B", bv, nrTile}, {"row-major B", rowB, n}}
	var ds []tileDescription
	for _, a := range as {
		for _, b := range bs {
			ds = append(ds, tileDescription{a.name + ", " + b.name,
				microOperands{a: a.a, rs: a.rs, ps: a.ps, b: b.b, ldb: b.ldb}})
		}
	}
	return ds
}

// TestEdgeTileGuardBand: an edge tile writes its rows×w corner and nothing
// else, and its kept lanes read nothing but the tile's operands. The
// output is a view whose row stride leaves a gap of sentinel NaNs after
// each row's w columns, with a full sentinel row below the last; every
// edge shape, fresh and resumed, under every operand description
// (tileDescriptions), on the assembly and the generic kernel, must match
// the generic kernel's corner on packed operands and leave every sentinel
// alone. The packed operands' pad lanes hold random values, not the zeros
// the packers write, and every float of an in-place operand outside the
// tile holds a sentinel, so a kept lane that reads either shows too.
func TestEdgeTileGuardBand(t *testing.T) {
	asmModes := []bool{false}
	if useAVX {
		asmModes = append(asmModes, true)
	}
	defer func(prev bool) { useAVX = prev }(useAVX)
	sentinel := math.Float32frombits(0x7fc0dead)
	const pc, ldo = 37, nrTile + 3
	rng := rand.New(rand.NewSource(5))
	av, bv := Rand(rng, -2, 2, pc*mrTile).data, Rand(rng, -2, 2, pc*nrTile).data
	packed := microOperands{a: av, rs: 1, ps: mrTile, b: bv, ldb: nrTile}
	descs := tileDescriptions(av, bv, pc, sentinel)
	for rows := 1; rows <= mrTile; rows++ {
		for w := 1; w <= nrTile; w++ {
			if rows == mrTile && w == nrTile {
				continue // a full tile, not an edge
			}
			for _, acc := range []bool{false, true} {
				want := make([]float32, (mrTile+1)*ldo)
				for i := range want {
					want[i] = sentinel
				}
				for r := 0; r < rows && acc; r++ {
					for c := 0; c < w; c++ {
						want[r*ldo+c] = rng.Float32()
					}
				}
				start := append([]float32(nil), want...)
				microGeneric(want, ldo, packed, pc, rows, w, acc)
				for _, d := range descs {
					for _, asm := range asmModes {
						useAVX = asm
						got := append([]float32(nil), start...)
						microEdge(got, ldo, d.ops, pc, rows, w, acc)
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("rows=%d w=%d accumulate=%v %s asm=%v: element (%d,%d) = %v (%#08x), want %v (%#08x)",
									rows, w, acc, d.name, asm, i/ldo, i%ldo, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// firstSourceNaN is x86's rule for an arithmetic instruction's result r
// = x op y: a NaN first source x wins, then a NaN second source y, each
// quieted; otherwise r.
func firstSourceNaN(x, y, r float32) float32 {
	switch {
	case x != x:
		return math.Float32frombits(math.Float32bits(x) | 0x00400000)
	case y != y:
		return math.Float32frombits(math.Float32bits(y) | 0x00400000)
	}
	return r
}

// TestMicroKernelMatchesGenericBits pins the assembly microkernel to
// microGeneric and to the operand roles its header promises, under every
// operand description (tileDescriptions; the floats outside an in-place
// tile hold a NaN of their own). A, B and the resumed output carry quiet
// NaNs whose payloads name their operand and position, and every rows×w
// tile, fresh and resumed, at reduction depths 1, 2, 7 and kcBlock, must
// match microGeneric on packed operands in every bit but a NaN's payload
// (bitsDiff's carve-out) — the kernel under test and microGeneric reading
// through the description alike. The payloads are checked against an
// explicit model instead, indexed through the same strides: when two NaNs
// meet, x86 keeps the first source's, so the kernel must multiply with
// the broadcast A value first and add with the accumulator first — the
// roles the default build's compiled Go kernels take. Under -race the
// compiler may order the generic kernel's add the other way, which is why
// the roles are pinned to the model and not to microGeneric.
func TestMicroKernelMatchesGenericBits(t *testing.T) {
	qnan := func(tag, i int) float32 { return math.Float32frombits(0x7fc00000 | uint32(tag)<<16 | uint32(i)&0xffff) }
	rng := rand.New(rand.NewSource(11))
	const ldo = nrTile + 1
	for _, pc := range []int{1, 2, 7, kcBlock} {
		av, bv := Rand(rng, -2, 2, pc*mrTile).data, Rand(rng, -2, 2, pc*nrTile).data
		for i := range av {
			if rng.Intn(5) == 0 {
				av[i] = qnan(1, i)
			}
		}
		for i := range bv {
			if rng.Intn(5) == 0 {
				bv[i] = qnan(2, i)
			}
		}
		packed := microOperands{a: av, rs: 1, ps: mrTile, b: bv, ldb: nrTile}
		descs := tileDescriptions(av, bv, pc, qnan(4, 0xdead))
		for rows := 1; rows <= mrTile; rows++ {
			for w := 1; w <= nrTile; w++ {
				for _, acc := range []bool{false, true} {
					start := Rand(rng, -2, 2, mrTile*ldo)
					for i := range start.data {
						if rng.Intn(3) == 0 {
							start.data[i] = qnan(3, i)
						}
					}
					gen := start.Clone()
					microGeneric(gen.data, ldo, packed, pc, rows, w, acc)
					for _, d := range descs {
						label := fmt.Sprintf("pc=%d rows=%d w=%d accumulate=%v %s asm=%v", pc, rows, w, acc, d.name, useAVX)
						strided, got, roles := start.Clone(), start.Clone(), start.Clone()
						microGeneric(strided.data, ldo, d.ops, pc, rows, w, acc)
						if diff := bitsDiff(strided, gen); diff != "" {
							t.Fatalf("%s: microGeneric through the description != on packed operands: %s", label, diff)
						}
						if rows == mrTile && w == nrTile {
							microKernel(got.data, ldo, d.ops, pc, acc)
						} else {
							microEdge(got.data, ldo, d.ops, pc, rows, w, acc)
						}
						if diff := bitsDiff(got, gen); diff != "" {
							t.Fatalf("%s: microkernel != microGeneric: %s", label, diff)
						}
						if !useAVX {
							continue
						}
						o := d.ops
						for r := 0; r < rows; r++ {
							for c := 0; c < w; c++ {
								var s float32
								if acc {
									s = roles.data[r*ldo+c]
								}
								for p := 0; p < pc; p++ {
									a, b := o.a[r*o.rs+p*o.ps], o.b[p*o.ldb+c]
									prod := firstSourceNaN(a, b, a*b)
									s = firstSourceNaN(s, prod, s+prod)
								}
								roles.data[r*ldo+c] = s
							}
						}
						for i := range got.data {
							if g, want := math.Float32bits(got.data[i]), math.Float32bits(roles.data[i]); g != want {
								t.Fatalf("%s: element (%d,%d) = %#08x, want %#08x by the operand roles",
									label, i/ldo, i%ldo, g, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestBackendDispatchMatchesReferenceBits drives the public backend
// entry points (which dispatch between reference and packed paths by
// size) against the reference kernels — the dispatch decision must never
// change bits.
func TestBackendDispatchMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	backends := []Backend{Serial{}, NewParallel(3)}
	for _, s := range adversarialShapes {
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		fillAdversarial(rng, a, 0)
		fillAdversarial(rng, b, 2)
		ref := New(s.m, s.n)
		matMulRowsRef(ref.data, a.data, b.data, s.k, s.n, 0, s.m)
		for _, be := range backends {
			got := New(s.m, s.n)
			be.MatMulInto(got, a, b)
			if diff := bitsDiff(got, ref); diff != "" {
				t.Errorf("%s MatMul != reference (m=%d k=%d n=%d): %s", be.Name(), s.m, s.k, s.n, diff)
			}
		}
	}
}

// convGeometries are the fused-GEMM geometry corner cases: padding,
// stride 2, 1×1 kernels, tiny spatial dims, and channel counts that
// leave partial panels.
var convGeometries = []struct{ n, c, h, w, k, stride, pad, outC int }{
	{1, 1, 5, 5, 3, 1, 1, 4},
	{2, 3, 8, 8, 3, 1, 1, 8},
	{2, 5, 7, 9, 3, 2, 1, 6},
	{1, 7, 6, 6, 1, 1, 0, 5},
	{3, 4, 11, 5, 5, 2, 2, 7},
	{1, 2, 3, 3, 3, 1, 1, 3}, // output smaller than one panel
}

// TestFusedConvGemmMatchesMaterialized pins the fused conv GEMMs
// (forward and weight-gradient) bit-for-bit to materialize-then-GEMM on
// every geometry, for both backends and with specials in the input.
func TestFusedConvGemmMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	backends := []Backend{Serial{}, NewParallel(3)}
	for gi, cse := range convGeometries {
		x := New(cse.n, cse.c, cse.h, cse.w)
		fillAdversarial(rng, x, gi)
		oh := ConvOutSize(cse.h, cse.k, cse.stride, cse.pad)
		ow := ConvOutSize(cse.w, cse.k, cse.stride, cse.pad)
		K := cse.c * cse.k * cse.k
		S := cse.n * oh * ow
		w := Rand(rng, -1, 1, cse.outC, K)
		grad := Rand(rng, -1, 1, cse.outC, S)
		cols := New(K, S)
		Serial{}.Im2ColInto(cols, x, cse.k, cse.k, cse.stride, cse.pad)

		wantFwd := New(cse.outC, S)
		matMulRowsRef(wantFwd.data, w.data, cols.data, K, S, 0, cse.outC)
		wantDW := New(cse.outC, K)
		matMulTBRowsRef(wantDW.data, grad.data, cols.data, S, K, 0, cse.outC)

		for _, be := range backends {
			fwd := New(cse.outC, S)
			be.ConvForwardInto(fwd, w, x, cse.k, cse.k, cse.stride, cse.pad)
			if diff := bitsDiff(fwd, wantFwd); diff != "" {
				t.Errorf("%s ConvForwardInto != materialized (case %d): %s", be.Name(), gi, diff)
			}
			dw := New(cse.outC, K)
			be.ConvGradWeightInto(dw, grad, x, cse.k, cse.k, cse.stride, cse.pad)
			if diff := bitsDiff(dw, wantDW); diff != "" {
				t.Errorf("%s ConvGradWeightInto != materialized (case %d): %s", be.Name(), gi, diff)
			}
		}
	}
}

// TestFusedPackMatchesMaterializedPack checks the layout invariant the
// fusion rests on: packing the virtual column matrix straight from the
// input produces byte-identical panels to materializing im2col output
// and packing that, in both the forward and transposed layouts.
func TestFusedPackMatchesMaterializedPack(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for gi, cse := range convGeometries {
		x := New(cse.n, cse.c, cse.h, cse.w)
		fillAdversarial(rng, x, gi+1)
		g := convGeom{n: cse.n, c: cse.c, h: cse.h, w: cse.w,
			oh: ConvOutSize(cse.h, cse.k, cse.stride, cse.pad),
			ow: ConvOutSize(cse.w, cse.k, cse.stride, cse.pad),
			kh: cse.k, kw: cse.k, stride: cse.stride, pad: cse.pad}
		K, S := g.colRows(), g.colCols()
		cols := New(K, S)
		Serial{}.Im2ColInto(cols, x, cse.k, cse.k, cse.stride, cse.pad)

		want := make([]float32, packedBLen(K, S))
		packBPanels(want, cols.data, K, S, 0, panelsOf(S))
		got := make([]float32, packedBLen(K, S))
		im2colPackPanels(got, x.data, g, 0, panelsOf(S))
		if diff := bitsDiff(FromSlice(got, len(got)), FromSlice(want, len(want))); diff != "" {
			t.Errorf("im2colPackPanels != packBPanels∘im2col (case %d): %s", gi, diff)
		}

		wantT := make([]float32, packedBLen(S, K))
		packBPanelsTB(wantT, cols.data, S, K, 0, panelsOf(K))
		gotT := make([]float32, packedBLen(S, K))
		im2colPackPanelsT(gotT, x.data, g, 0, panelsOf(K))
		if diff := bitsDiff(FromSlice(gotT, len(gotT)), FromSlice(wantT, len(wantT))); diff != "" {
			t.Errorf("im2colPackPanelsT != packBPanelsTB∘im2col (case %d): %s", gi, diff)
		}
		// And the scalar oracle agrees element by element.
		for p := 0; p < K; p++ {
			for j := 0; j < S; j++ {
				if math.Float32bits(g.at(x.data, p, j)) != math.Float32bits(cols.data[p*S+j]) {
					t.Fatalf("convGeom.at(%d,%d) disagrees with im2col (case %d)", p, j, gi)
				}
			}
		}
	}
}
