//go:build amd64

package tensor

// hostTier is the widest kernel tier the CPU implements and the OS
// saves the registers of: tierAVX512 with AVX-512 F and DQ and the
// opmask and ZMM state enabled, tierAVX with AVX and the YMM state,
// else tierGeneric.
func hostTier() kernelTier {
	switch {
	case !hasAVX():
		return tierGeneric
	case hasAVX512():
		return tierAVX512
	}
	return tierAVX
}

// hasAVX reports whether the CPU implements AVX and the OS saves the YMM
// registers across context switches (CPUID.1:ECX OSXSAVE and AVX, XCR0
// bits 1–2), in gemm_amd64.s.
func hasAVX() bool

// hasAVX512 reports whether the CPU implements AVX-512 F and DQ
// (CPUID.7.0:EBX bits 16–17) and the OS saves the XMM, YMM, opmask and
// ZMM registers (XCR0 & 0xE6), in gemm_amd64.s.
func hasAVX512() bool

// microKernelAVX is the assembly microkernel of tierAVX (gemm_amd64.s):
// a rows×w register tile of one panel (at most mrTile×nrTile) using
// AVX, reading A element (r, p) at a[r*rs+p*ps] (strides in floats) and
// row p of B at b[boff[p]] (offsets in floats, see microOperands). Each
// output column occupies one vector lane, so every lane performs
// exactly the scalar ascending-p multiply/add sequence and the result
// is bit-identical to microGeneric. An edge tile (rows < mrTile or w <
// nrTile) reads A rows < rows only and loads and stores only its rows×w
// corner of out, through masked moves; every tile reads nrTile floats of
// each B row. With accumulate the tile resumes from the values in out,
// else it starts at zero.
//
//go:noescape
func microKernelAVX(out *float32, ldo int, a *float32, rs, ps int, b *float32, boff *int32, pc, rows, w int, accumulate bool)

// microKernelAVX512 is microKernelAVX for a pair of panels, the kernel
// of tierAVX512: a rows×w tile (at most mrTile×2·nrTile) in Z
// registers, row p of the second panel at b[boff[p]+pair]. Every tile
// loads and stores its rows×w corner of out under an opmask of its
// first w lanes, and reads nrTile floats of each B row of both panels.
//
//go:noescape
func microKernelAVX512(out *float32, ldo int, a *float32, rs, ps int, b *float32, boff *int32, pair, pc, rows, w int, accumulate bool)

// microKernel computes one rows×w tile of a panel pair from the
// operands t describes: the one kernel entry for full and edge tiles
// alike, on the kernel of the current tier. tierAVX runs the pair as
// one microKernelAVX call per panel.
func microKernel(od []float32, ldo int, t *microOperands, pc, rows, w int, accumulate bool) {
	if tier == tierGeneric {
		microGeneric(od, ldo, t, pc, rows, w, accumulate)
		return
	}
	// Go cannot bounds-check the assembly: index the last A, B and output
	// float it touches here, so a description that overruns its slice
	// panics instead of reading past it. B's offset table ascends, so its
	// last row of the second panel is the furthest.
	_ = t.a[(rows-1)*t.rs+(pc-1)*t.ps]
	_ = t.b[int(t.boff[pc-1])+t.pair+nrTile-1]
	_ = od[(rows-1)*ldo+w-1]
	if tier == tierAVX512 {
		microKernelAVX512(&od[0], ldo, &t.a[0], t.rs, t.ps, &t.b[0], &t.boff[0], t.pair, pc, rows, w, accumulate)
		return
	}
	microKernelAVX(&od[0], ldo, &t.a[0], t.rs, t.ps, &t.b[0], &t.boff[0], pc, rows, min(w, nrTile), accumulate)
	if w > nrTile {
		microKernelAVX(&od[nrTile], ldo, &t.a[0], t.rs, t.ps, &t.b[t.pair], &t.boff[0], pc, rows, w-nrTile, accumulate)
	}
}

// transposeAVX is the 1×1 weight-gradient pack's kernel (gemm_amd64.s):
// tiles 8×8 transposes, tile t writing dst[64t:64t+64] from floats
// 8t…8t+7 of src's rows c < w, hw floats apart; lanes c ≥ w are zero.
//
//go:noescape
func transposeAVX(dst, src *float32, hw, tiles, w int)

// transposeLanes packs panel j0/8 of a 1×1, stride-1, unpadded conv's dW
// operand (see im2colPackPanelsT) into dst on the vector tiers: each
// image's whole groups of 8 positions through transposeAVX, the rest
// through transposeTail. It reports false, packing nothing, without AVX
// or when a plane holds fewer than 8 positions.
func transposeLanes(dst, xd []float32, g convGeom, j0, w int) bool {
	hw := g.h * g.w
	tiles := hw / nrTile
	if tier == tierGeneric || tiles == 0 {
		return false
	}
	for ni := 0; ni < g.n; ni++ {
		src := xd[(ni*g.c+j0)*hw:]
		d := dst[ni*hw*nrTile : (ni+1)*hw*nrTile]
		// The last float of src the kernel reads, so a description that
		// overruns x panics here; d's slice holds the tiles' 64 floats each.
		_ = src[(w-1)*hw+tiles*nrTile-1]
		transposeAVX(&d[0], &src[0], hw, tiles, w)
		transposeTail(d, src, hw, w, tiles*nrTile)
	}
	return true
}

// transposeTail writes one image's panel rows from position lo on for a
// 1×1 conv: row p holds src[c·hw + p] in lane c < w, zero past w — the
// positions past the vector kernel's last whole group of 8.
func transposeTail(dst, src []float32, hw, w, lo int) {
	for p := lo; p < hw; p++ {
		d := dst[p*nrTile : (p+1)*nrTile]
		for c := range w {
			d[c] = src[c*hw+p]
		}
		clear(d[w:])
	}
}
