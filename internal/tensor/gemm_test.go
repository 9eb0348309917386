package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file pins the packed GEMM engine bit-for-bit to the reference
// kernels (matmul_ref_test.go) on adversarial inputs: odd/prime
// dimensions, shapes smaller than the register tile, reductions spanning
// multiple kcBlock tiles, and values containing ±0, NaN and ±Inf. Comparisons are on raw
// float bits (math.Float32bits), so NaN payloads and zero signs count.

// packedMatMul runs the packed engine on an m×n GEMM of the given
// layout, serially or over a pool.
func packedMatMul(pool *Pool, layout gemmLayout, a, b *Tensor, m, n int) *Tensor {
	out := New(m, n)
	gemm(pool, matMulOperands("packedMatMul", layout, 2, out, a, b))
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

// raggedShapes leave a ragged row tile (m not a multiple of mrTile) or a
// ragged panel (n not a multiple of nrTile), or both, with B in place
// (n = 16) and packed: the edge tiles the microkernel bounds by their
// row count and width alone.
var raggedShapes = func() []struct{ m, k, n int } {
	var ss []struct{ m, k, n int }
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 9, 15} {
		for _, n := range []int{1, 3, 6, 7, 16} {
			ss = append(ss, struct{ m, k, n int }{m, 11, n})
		}
	}
	return ss
}()

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

// allTiers lists the kernel tiers this host can run, generic first: the
// tiers every bit-equivalence suite iterates.
func allTiers() []kernelTier {
	var tiers []kernelTier
	for k := tierGeneric; k <= hostTier(); k++ {
		tiers = append(tiers, k)
	}
	return tiers
}

// hostTiers is allTiers, logged, so a run shows which tiers it covered.
func hostTiers(t testing.TB) []kernelTier {
	tiers := allTiers()
	t.Logf("kernel tiers: %v", tiers)
	return tiers
}

// TestKernelTierProbe: calls run at the host's tier, as the start-up
// probe chose it and every suite that lowers it restores it, and the
// probe answers the same every time.
func TestKernelTierProbe(t *testing.T) {
	host := hostTier()
	if tier != host {
		t.Fatalf("tier %v at the start of the test, the host's is %v", tier, host)
	}
	for range 3 {
		if k := hostTier(); k != host {
			t.Fatalf("the probe said %v, then %v", host, k)
		}
	}
	t.Logf("host kernel tier: %v", host)
}

// TestPackedKernelsMatchReferenceBits is the satellite bit-equivalence
// suite: the packed engine (the microkernel of every tier, serial and
// pooled schedules) must reproduce the reference kernels exactly on
// every adversarial shape and value class.
func TestPackedKernelsMatchReferenceBits(t *testing.T) {
	pools := []*Pool{nil, NewPool(3)}
	tiers := hostTiers(t)
	defer func(prev kernelTier) { tier = prev }(tier)
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

			for _, k := range tiers {
				tier = k
				for _, pool := range pools {
					label := fmt.Sprintf("m=%d k=%d n=%d specials=%d tier=%v pooled=%v",
						s.m, s.k, s.n, which, k, pool != nil)
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

// rowOffsets is the B offset table of pc rows step floats apart.
func rowOffsets(pc, step int) []int32 {
	boff := make([]int32, pc)
	for p := range boff {
		boff[p] = int32(p * step)
	}
	return boff
}

// tileWidth is the widest tile the microkernel computes: a panel pair.
const tileWidth = 2 * nrTile

// packedPair lays B element (p, c) of a tile of pc terms, bv[p*tileWidth+c],
// out as two packed panels, the second pc·nrTile floats after the first.
func packedPair(bv []float32, pc int) microOperands {
	b := make([]float32, 2*pc*nrTile)
	for p := 0; p < pc; p++ {
		copy(b[p*nrTile:(p+1)*nrTile], bv[p*tileWidth:])
		copy(b[(pc+p)*nrTile:(pc+p+1)*nrTile], bv[p*tileWidth+nrTile:])
	}
	return microOperands{b: b, boff: rowOffsets(pc, nrTile), pair: pc * nrTile}
}

// lone is d as the engine hands a tile of one panel, w ≤ nrTile, to the
// microkernel: pair 0, the second panel's lanes reading the first's.
func lone(d microOperands, w int) *microOperands {
	if w <= nrTile {
		d.pair = 0
	}
	return &d
}

// tileDescriptions lays a tile's operands — A element (r, p) at
// av[p*mrTile+r] and B element (p, c) at bv[p*tileWidth+c], for pc terms
// — out every way the engine hands them to the microkernel: A in place
// as rows longer than the tile (rs > pc), or as the leading columns of a
// wider [pc, m] operand (ps = m); B as a pair of packed panels (pair
// pc·nrTile), in place as the leading columns of a wider [pc, n] operand
// (offsets p·n, pair nrTile), or as a conv input's tap rows, whose
// offsets ascend in uneven steps (row q+1 starts 2·nrTile+3 + q%3·5 +
// q%7 floats after row q, as kernel columns, rows and channels step by
// 1, Wp and a plane) with the second panel across an output row (pair
// nrTile+2, the padded-row step of a pad-1 conv from the last panel of
// one output row to the first of the next). Every float of an in-place
// operand outside the tile holds fill.
func tileDescriptions(av, bv []float32, pc int, fill float32) []tileDescription {
	const gap = 3            // floats of fill past the tile in each row or column
	const cross = nrTile + 2 // the conv pair's distance between its panels
	rs, m, n := pc+gap, mrTile+gap, tileWidth+gap
	taps := make([]int32, pc)
	for p := 1; p < pc; p++ {
		taps[p] = taps[p-1] + int32(tileWidth+3+(p-1)%3*5+(p-1)%7)
	}
	rowA, colA := Full(fill, mrTile*rs).data, Full(fill, pc*m).data
	rowB, tapB := Full(fill, pc*n).data, Full(fill, int(taps[pc-1])+cross+nrTile+gap).data
	for p := 0; p < pc; p++ {
		for r := 0; r < mrTile; r++ {
			rowA[r*rs+p], colA[p*m+r] = av[p*mrTile+r], av[p*mrTile+r]
		}
		row := bv[p*tileWidth : (p+1)*tileWidth]
		copy(rowB[p*n:p*n+tileWidth], row)
		copy(tapB[taps[p]:int(taps[p])+nrTile], row[:nrTile])
		copy(tapB[int(taps[p])+cross:int(taps[p])+cross+nrTile], row[nrTile:])
	}
	as := []struct {
		name   string
		a      []float32
		rs, ps int
	}{{"row-major A", rowA, rs, 1}, {"column A", colA, 1, m}}
	packed := packedPair(bv, pc)
	bs := []struct {
		name string
		b    microOperands
	}{
		{"packed B", packed},
		{"row-major B", microOperands{b: rowB, boff: rowOffsets(pc, n), pair: nrTile}},
		{"tap-table B", microOperands{b: tapB, boff: taps, pair: cross}},
	}
	var ds []tileDescription
	for _, a := range as {
		for _, b := range bs {
			ops := b.b
			ops.a, ops.rs, ops.ps = a.a, a.rs, a.ps
			ds = append(ds, tileDescription{a.name + ", " + b.name, ops})
		}
	}
	return ds
}

// TestEdgeTileGuardBand: an edge tile writes its rows×w corner and nothing
// else, and its kept lanes read nothing but the tile's operands. The
// output is a view whose row stride leaves a gap of sentinel NaNs after
// each row's w columns, with a full sentinel row below the last; every
// edge shape of a panel pair, fresh and resumed, under every operand
// description (tileDescriptions; a lone panel when w ≤ nrTile), on the
// kernel of every tier, must match the generic kernel's corner on packed
// operands and leave every sentinel alone. The packed operands' pad
// lanes hold random values, not the zeros the packers write, and every
// float of an in-place operand outside the tile holds a sentinel, so a
// kept lane that reads either shows too.
func TestEdgeTileGuardBand(t *testing.T) {
	tiers := hostTiers(t)
	defer func(prev kernelTier) { tier = prev }(tier)
	sentinel := math.Float32frombits(0x7fc0dead)
	const pc, ldo = 37, tileWidth + 3
	rng := rand.New(rand.NewSource(5))
	av, bv := Rand(rng, -2, 2, pc*mrTile).data, Rand(rng, -2, 2, pc*tileWidth).data
	packed := packedPair(bv, pc)
	packed.a, packed.rs, packed.ps = av, 1, mrTile
	descs := tileDescriptions(av, bv, pc, sentinel)
	for rows := 1; rows <= mrTile; rows++ {
		for w := 1; w <= tileWidth; w++ {
			if rows == mrTile && w == tileWidth {
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
				microGeneric(want, ldo, lone(packed, w), pc, rows, w, acc)
				for _, d := range descs {
					for _, k := range tiers {
						tier = k
						got := append([]float32(nil), start...)
						microKernel(got, ldo, lone(d.ops, w), pc, rows, w, acc)
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("rows=%d w=%d accumulate=%v %s tier=%v: element (%d,%d) = %v (%#08x), want %v (%#08x)",
									rows, w, acc, d.name, k, i/ldo, i%ldo, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestMicroKernelGuardsOperandEnds: Go cannot bounds-check the assembly,
// so microKernel indexes the last A, B and output float a tile touches
// before it runs. A description one float short of any of them must
// panic — B's through the last entry of its offset table, which is the
// furthest row only because every table ascends, in the second panel of
// a pair and in a lone panel — on the kernel of every tier. The operands
// are views of longer buffers, so a kernel that runs anyway reads memory
// that exists.
func TestMicroKernelGuardsOperandEnds(t *testing.T) {
	tiers := hostTiers(t)
	defer func(prev kernelTier) { tier = prev }(tier)
	const pc, ldo = 9, tileWidth + 2
	taps := make([]int32, pc)
	for p := range taps {
		taps[p] = int32(p*tileWidth*3 + p%2)
	}
	for _, tile := range []struct{ w, pair int }{{nrTile, 0}, {tileWidth, nrTile + 2}} {
		aLen, bLen, oLen := (mrTile-1)*pc+pc, int(taps[pc-1])+tile.pair+nrTile, (mrTile-1)*ldo+tile.w
		a, b, out := make([]float32, aLen+64), make([]float32, bLen+64), make([]float32, oLen+64)
		for short := range 3 {
			la, lb, lo := aLen, bLen, oLen
			switch short {
			case 0:
				la--
			case 1:
				lb--
			case 2:
				lo--
			}
			ops := microOperands{a: a[:la:la], rs: pc, ps: 1, b: b[:lb:lb], boff: taps, pair: tile.pair}
			for _, k := range tiers {
				tier = k
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					microKernel(out[:lo:lo], ldo, &ops, pc, mrTile, tile.w, false)
					return false
				}()
				if !panicked {
					t.Errorf("operand %q one float short, w=%d pair=%d tier=%v: the kernel ran", "ABO"[short:short+1], tile.w, tile.pair, k)
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

// TestMicroKernelMatchesGenericBits pins microKernel, the one entry for
// full and edge tiles, to microGeneric and the assembly kernels to the
// operand roles their header promises, on every tier and under every
// operand description (tileDescriptions: each pair distance — packed
// panels k·nrTile apart, a row-major B's nrTile, a conv pair across an
// output row — and a lone panel when w ≤ nrTile; the floats outside an
// in-place tile hold a NaN of their own). A, B and the resumed output
// carry quiet NaNs whose payloads name their operand and position, and
// every rows×w tile up to a panel pair, fresh and resumed, at reduction
// depths 1, 2, 7 and kcBlock, must match microGeneric on packed operands
// in every bit but a NaN's payload (bitsDiff's carve-out) — the kernel
// under test and microGeneric reading through the description alike.
// The payloads are checked against an explicit model instead, indexed
// through the same strides: when two NaNs meet, x86 keeps the first
// source's, so the kernel must multiply with the broadcast A value first
// and add with the accumulator first — the roles the default build's
// compiled Go kernels take. Under -race the compiler may order the
// generic kernel's add the other way, which is why the roles are pinned
// to the model and not to microGeneric.
func TestMicroKernelMatchesGenericBits(t *testing.T) {
	tiers := hostTiers(t)
	defer func(prev kernelTier) { tier = prev }(tier)
	qnan := func(tag, i int) float32 { return math.Float32frombits(0x7fc00000 | uint32(tag)<<16 | uint32(i)&0xffff) }
	rng := rand.New(rand.NewSource(11))
	const ldo = tileWidth + 1
	for _, pc := range []int{1, 2, 7, kcBlock} {
		av, bv := Rand(rng, -2, 2, pc*mrTile).data, Rand(rng, -2, 2, pc*tileWidth).data
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
		packed := packedPair(bv, pc)
		packed.a, packed.rs, packed.ps = av, 1, mrTile
		descs := tileDescriptions(av, bv, pc, qnan(4, 0xdead))
		for rows := 1; rows <= mrTile; rows++ {
			for w := 1; w <= tileWidth; w++ {
				for _, acc := range []bool{false, true} {
					start := Rand(rng, -2, 2, mrTile*ldo)
					for i := range start.data {
						if rng.Intn(3) == 0 {
							start.data[i] = qnan(3, i)
						}
					}
					gen := start.Clone()
					microGeneric(gen.data, ldo, lone(packed, w), pc, rows, w, acc)
					for _, d := range descs {
						o := lone(d.ops, w)
						strided := start.Clone()
						microGeneric(strided.data, ldo, o, pc, rows, w, acc)
						if diff := bitsDiff(strided, gen); diff != "" {
							t.Fatalf("pc=%d rows=%d w=%d accumulate=%v %s: microGeneric through the description != on packed operands: %s",
								pc, rows, w, acc, d.name, diff)
						}
						roles := start.Clone()
						for r := 0; r < rows; r++ {
							for c := 0; c < w; c++ {
								var s float32
								if acc {
									s = roles.data[r*ldo+c]
								}
								for p := 0; p < pc; p++ {
									a, b := o.a[r*o.rs+p*o.ps], o.b[int(o.boff[p])+c/nrTile*o.pair+c%nrTile]
									prod := firstSourceNaN(a, b, a*b)
									s = firstSourceNaN(s, prod, s+prod)
								}
								roles.data[r*ldo+c] = s
							}
						}
						for _, k := range tiers {
							tier = k
							label := fmt.Sprintf("pc=%d rows=%d w=%d accumulate=%v %s tier=%v", pc, rows, w, acc, d.name, k)
							got := start.Clone()
							microKernel(got.data, ldo, o, pc, rows, w, acc)
							if diff := bitsDiff(got, gen); diff != "" {
								t.Fatalf("%s: microkernel != microGeneric: %s", label, diff)
							}
							if k == tierGeneric {
								continue
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
}

// TestBackendDispatchMatchesReferenceBits drives the public backend
// entry points, serial and parallel, against the reference kernels: the
// backend a call dispatches to must never change bits.
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

// TestFusedConvReadsInPlace pins which fused conv GEMMs read their taps
// in place (bInPlace): every conv forward `go run ./benchmark` issues —
// conv_inproc's 16 output channels over 8 and 16 images of 16×16 on 16
// and 3 input channels, and the ring and hub workloads' 6 output
// channels over 8×8 images on 6 and 3, each 3×3 with pad 1 and 1×1 — is
// stride 1 at an output width of 8 or 16, so it must; a strided conv,
// an output width short of whole panels, and every weight-gradient GEMM
// must pack. What a call borrows follows: a padded conv read in place
// borrows its input's n·C bordered planes, a 1×1 nothing.
func TestFusedConvReadsInPlace(t *testing.T) {
	type geo struct{ n, c, hw, m, k, stride, pad int }
	var census []geo
	for _, w := range []struct{ hw, m int }{{16, 16}, {8, 6}} {
		for _, n := range []int{8, 16} {
			for _, c := range []int{w.m, 3} {
				census = append(census, geo{n, c, w.hw, w.m, 3, 1, 1}, geo{n, c, w.hw, w.m, 1, 1, 0})
			}
		}
	}
	packs := []geo{
		{8, 16, 16, 16, 3, 2, 1}, // stride 2: ow 8, but the taps are strided
		{2, 6, 9, 6, 3, 1, 1},    // ow 9
		{2, 6, 12, 6, 3, 1, 1},   // ow 12
		{2, 6, 12, 6, 1, 1, 0},   // ow 12, 1×1
		{1, 3, 5, 4, 3, 1, 1},    // ow 5: less than one panel
	}
	operands := func(layout gemmLayout, g geo) gemmOperands {
		x := New(g.n, g.c, g.hw, g.hw)
		ow := ConvOutSize(g.hw, g.k, g.stride, g.pad)
		K, S := g.c*g.k*g.k, g.n*ow*ow
		if layout == layoutConvT {
			return convOperands("TestFusedConvReadsInPlace", layout, New(g.m, K), New(g.m, S), x, g.k, g.k, g.stride, g.pad)
		}
		return convOperands("TestFusedConvReadsInPlace", layout, New(g.m, S), New(g.m, K), x, g.k, g.k, g.stride, g.pad)
	}
	for _, g := range census {
		o := operands(layoutConv, g)
		if !o.bInPlace() {
			t.Errorf("forward %+v (ow %d) packs; the census wants it read in place", g, o.conv.ow)
			continue
		}
		want := 0
		if g.pad > 0 {
			want = g.n * g.c * (g.hw + 2*g.pad) * (g.hw + 2*g.pad)
		}
		if units, unitLen := o.bPrep(true); units*unitLen != want {
			t.Errorf("forward %+v borrows %d×%d floats, want %d", g, units, unitLen, want)
		}
	}
	for _, g := range append(packs, census...) {
		if o := operands(layoutConvT, g); o.bInPlace() {
			t.Errorf("weight gradient %+v reads in place; dW always packs", g)
		}
	}
	for _, g := range packs {
		if o := operands(layoutConv, g); o.bInPlace() {
			t.Errorf("forward %+v (stride %d, ow %d) reads in place; it must pack", g, g.stride, o.conv.ow)
		}
	}
}

// TestFusedConvBordersEveryCall: a padded conv read in place borrows
// arena memory that earlier calls filled, so it must copy its input and
// write its zero border on every call. A forward on an all-NaN input
// leaves NaN in the bordered copy's interior, and poisoning the pack
// arenas fills every free buffer — a stale border included — with NaN;
// the forward that follows on the same geometry must still match the
// materialized reference bit for bit, serially and on a pool, at ow 8
// and 16.
func TestFusedConvBordersEveryCall(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := NewPool(2)
	for _, g := range []struct{ n, c, hw, m int }{{2, 3, 8, 6}, {2, 4, 16, 16}} {
		x := Rand(rng, -2, 2, g.n, g.c, g.hw, g.hw)
		nan := Full(float32(math.NaN()), x.shape...)
		w := Rand(rng, -2, 2, g.m, g.c*9)
		K, S := g.c*9, g.n*g.hw*g.hw
		cols := New(K, S)
		Serial{}.Im2ColInto(cols, x, 3, 3, 1, 1)
		want := New(g.m, S)
		matMulRowsRef(want.data, w.data, cols.data, K, S, 0, g.m)
		for _, p := range []*Pool{nil, pool} {
			out := New(g.m, S)
			backendOf(p).ConvForwardInto(out, w, nan, 3, 3, 1, 1)
			packArenas.mu.Lock()
			for _, ar := range packArenas.kept {
				ar.Poison()
			}
			packArenas.mu.Unlock()
			backendOf(p).ConvForwardInto(out, w, x, 3, 3, 1, 1)
			if diff := bitsDiff(out, want); diff != "" {
				t.Fatalf("%+v pooled=%v: after a NaN input and poisoned arenas: %s", g, p != nil, diff)
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
