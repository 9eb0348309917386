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

// dwWeightAVX512 and dwWeightAVX (dwconv_amd64.s) add one image's terms
// of a stride-1 3×3 weight gradient to the nine sums of each of n
// consecutive channels: dw, grad and x point at the first channel's, the
// planes of the others follow. rm and cm are the tables dwTapMasks
// builds. Each lane owns one tap and runs the scalar sequence of its sum,
// so the results are bit-identical to dwWeightRow's.
//
//go:noescape
func dwWeightAVX512(dw, grad, x *float32, rm, cm *int32, n, h, width, oh, ow, pad int)

//go:noescape
func dwWeightAVX(dw, grad, x *float32, rm, cm *int32, n, h, width, oh, ow, pad int)

// dwGroupAVX512 and dwGroupAVX are the channels one weight-gradient call
// covers on each tier, each channel's sums a chain of its own: the
// kernels' limits (four channels in ZMM registers, three in the sixteen
// YMM ones), which were also the fastest of 2–4 at the models' planes.
const (
	dwGroupAVX512 = 4
	dwGroupAVX    = 3
)

// dwTapStack is the size of the tap-mask tables a weight-gradient call
// keeps on its stack: nine lanes for every output row and column of a
// plane up to 32×32. A larger plane's tables are allocated.
const dwTapStack = 9 * 64

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

// dwTapMasks builds the tap masks of a stride-1 3×3 weight-gradient call
// into buf (or a new slice, for planes too large for it): lane t of the
// nine at rm[9·oi] is all ones where kernel row t/3 of output row oi lies
// inside the image, lane t of the nine at cm[9·oj] where kernel column
// t%3 of output column oj does, and zero elsewhere.
func dwTapMasks(g convGeom, buf []int32) (rm, cm []int32) {
	n := 9 * (g.oh + g.ow)
	if len(buf) < n {
		buf = make([]int32, n)
	}
	rm, cm = buf[:9*g.oh], buf[9*g.oh:n]
	for t := range 9 {
		for oi := range g.oh {
			rm[9*oi+t] = laneIn(oi-g.pad+t/3, g.h)
		}
		for oj := range g.ow {
			cm[9*oj+t] = laneIn(oj-g.pad+t%3, g.w)
		}
	}
	return rm, cm
}

// laneIn is an all-ones lane where 0 ≤ i < n and a zero one elsewhere.
func laneIn(i, n int) int32 {
	if i >= 0 && i < n {
		return -1
	}
	return 0
}

// dwWeightLanes accumulates a depthwise weight gradient through
// dwWeightAVX512 or dwWeightAVX, one call per image and group of
// channels, images ascending, and reports whether it did: it declines
// without AVX, at stride > 1 and for kernels other than 3×3, where
// dwWeightRow or dwBackwardRow runs.
func dwWeightLanes(dwd, gd, xd []float32, g convGeom) bool {
	if tier == tierGeneric || g.stride != 1 || g.kh != 3 {
		return false
	}
	var buf [dwTapStack]int32
	rm, cm := dwTapMasks(g, buf[:])
	group := dwGroupAVX
	if tier == tierAVX512 {
		group = dwGroupAVX512
	}
	in, out := g.h*g.w, g.oh*g.ow
	for ni := range g.n {
		for c0 := 0; c0 < g.c; c0 += group {
			nc := min(group, g.c-c0)
			plane := ni*g.c + c0
			// As in dwForwardLanes, slicing the group's whole planes
			// panics on a short operand instead.
			dws, gp, xp := dwd[9*c0:][:9*nc], gd[plane*out:][:nc*out], xd[plane*in:][:nc*in]
			if tier == tierAVX512 {
				dwWeightAVX512(&dws[0], &gp[0], &xp[0], &rm[0], &cm[0], nc, g.h, g.w, g.oh, g.ow, g.pad)
			} else {
				dwWeightAVX(&dws[0], &gp[0], &xp[0], &rm[0], &cm[0], nc, g.h, g.w, g.oh, g.ow, g.pad)
			}
		}
	}
	return true
}
