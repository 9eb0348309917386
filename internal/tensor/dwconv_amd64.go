//go:build amd64

package tensor

// dwMaskStack is the size of the lane-mask tables a depthwise call keeps
// on its stack: enough for rows up to 100 floats wide at the padding and
// kernel sizes the models use. A wider call's tables are allocated.
const dwMaskStack = 256

// dwForwardAVX and dwInputGradAVX (dwconv_amd64.s) compute one plane of
// a stride-1 depthwise convolution: every output row of the forward pass
// from x and the channel's K×K weights w, or every input row of the input
// gradient from grad and w, overwriting out or dx. lm and sm point into
// the tables dwLaneMasks builds: lm at the first load mask, sm at the
// first store mask. Each lane runs the scalar sequence of its column, so
// the results are bit-identical to the row-run loops.
//
//go:noescape
func dwForwardAVX(out, x, w *float32, lm, sm *int32, h, width, oh, ow, k, pad int)

//go:noescape
func dwInputGradAVX(dx, grad, w *float32, lm, sm *int32, h, width, oh, ow, k, pad int)

// dwLaneMasks builds the lane masks of a stride-1 call into buf (or a new
// slice, for rows too wide for it): xm[i] is all ones where input column
// i-pad lies inside the row, gm[i] where output column i-(K-1) does, both
// zero elsewhere. Read eight at a time at offset o, xm gives the lanes of
// a forward block whose tap reads input columns o-pad onward and of a dx
// block at input column o-pad; gm those of a dx block whose tap reads
// output columns o-(K-1) onward and of a forward block at output column
// o-(K-1). Each table reaches past every offset a call reads at.
func dwLaneMasks(g convGeom, buf []int32) (xm, gm []int32) {
	n := (max(g.w, g.ow)+7)&^7 + g.pad + g.kw
	if len(buf) < 2*n {
		buf = make([]int32, 2*n)
	}
	xm, gm = buf[:n], buf[n:2*n]
	laneRange(xm, g.pad, g.w)
	laneRange(gm, g.kw-1, g.ow)
	return xm, gm
}

// laneRange sets m[i] to all ones for i in [from, from+n) and to zero
// elsewhere.
func laneRange(m []int32, from, n int) {
	for i := range m {
		m[i] = 0
		if i >= from && i < from+n {
			m[i] = -1
		}
	}
}

// dwForwardLanes computes a depthwise forward pass through dwForwardAVX,
// one call per plane, and reports whether it did: it declines without
// AVX and at stride > 1, where the row-run loops run.
func dwForwardLanes(od, wd, xd []float32, g convGeom) bool {
	if tier == tierGeneric || g.stride != 1 {
		return false
	}
	var buf [dwMaskStack]int32
	xm, gm := dwLaneMasks(g, buf[:])
	in, out, kk := g.h*g.w, g.oh*g.ow, g.kh*g.kw
	for plane := 0; plane < g.n*g.c; plane++ {
		// Go cannot bounds-check the assembly: slicing whole planes here
		// panics on a short operand instead.
		op, xp := od[plane*out:][:out], xd[plane*in:][:in]
		wk := wd[plane%g.c*kk:][:kk]
		dwForwardAVX(&op[0], &xp[0], &wk[0], &xm[0], &gm[g.kw-1], g.h, g.w, g.oh, g.ow, g.kw, g.pad)
	}
	return true
}

// dwInputGradLanes is dwForwardLanes for the input gradient: it
// overwrites dxd through dwInputGradAVX and leaves the weight gradient to
// its caller.
func dwInputGradLanes(dxd, gd, wd []float32, g convGeom) bool {
	if tier == tierGeneric || g.stride != 1 {
		return false
	}
	var buf [dwMaskStack]int32
	xm, gm := dwLaneMasks(g, buf[:])
	in, out, kk := g.h*g.w, g.oh*g.ow, g.kh*g.kw
	for plane := 0; plane < g.n*g.c; plane++ {
		dxp, gp := dxd[plane*in:][:in], gd[plane*out:][:out]
		wk := wd[plane%g.c*kk:][:kk]
		dwInputGradAVX(&dxp[0], &gp[0], &wk[0], &gm[g.pad], &xm[g.pad], g.h, g.w, g.oh, g.ow, g.kw, g.pad)
	}
	return true
}
