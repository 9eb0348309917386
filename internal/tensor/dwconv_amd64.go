//go:build amd64

package tensor

import "unsafe"

// dwMaskStack is the size of the lane-mask tables a depthwise call keeps
// on its stack: enough for rows up to 100 floats wide at the padding and
// kernel sizes the models use. A wider call's tables are allocated.
const dwMaskStack = 256

// dwForwardAVX512 and dwInputGradAVX512 (dwconv_amd64.s) compute one
// plane of a stride-1 3×3 depthwise convolution on tierAVX512: every
// output row of the forward pass from x and the channel's nine weights
// w, or every input row of the input gradient from grad and w,
// overwriting out or dx, four rows at a time in 16-lane blocks. m is the
// opmask table dwBlockMasks builds. Each lane runs the scalar sequence
// of its column, so the results are bit-identical to the row-run loops.
//
//go:noescape
func dwForwardAVX512(out, x, w *float32, m *uint16, h, width, oh, ow, pad int)

//go:noescape
func dwInputGradAVX512(dx, grad, w *float32, m *uint16, h, width, oh, ow, pad int)

// dwForwardAVX and dwInputGradAVX (dwconv_amd64.s) are the same for any
// K×K kernel, one row at a time in 8-lane blocks: on tierAVX, and for
// kernels other than 3×3 on tierAVX512. lm and sm point into the tables
// dwLaneMasks builds: lm at the first load mask, sm at the first store
// mask.
//
//go:noescape
func dwForwardAVX(out, x, w *float32, lm, sm *int32, h, width, oh, ow, k, pad int)

//go:noescape
func dwInputGradAVX(dx, grad, w *float32, lm, sm *int32, h, width, oh, ow, k, pad int)

// dwStageAVX512 (dwconv_amd64.s) writes the first n ≤ 16 of 16 planes
// of hw floats each, hw apart from src, channels-last to dst: float p of
// plane c goes to dst[16p + c]. Lanes c ≥ n are +0, and so is every lane
// of the positions from hw up to the next multiple of 16, which dst must
// hold too. Only bits move.
//
//go:noescape
func dwStageAVX512(dst, src *float32, hw, n int)

// dwWeightAVX512 (dwconv_amd64.s) adds one image's terms of a stride-1
// 3×3 weight gradient to sums, whose lane c of row t is tap t of channel
// c: grad and x are the image's gradient and input, channels-last as
// dwStageAVX512 writes them, and tm the tap table dwTapBits builds. Each
// lane runs the scalar sequence of its sum, so the results are
// bit-identical to dwWeightRow's.
//
//go:noescape
func dwWeightAVX512(sums, grad, x *float32, tm *uint16, h, width, oh, ow, pad int)

// dwWeightAVX (dwconv_amd64.s) adds one image's terms of a stride-1 3×3
// weight gradient to the nine sums of each of n ≤ dwGroupAVX consecutive
// channels on tierAVX: dw, grad and x point at the first channel's, the
// planes of the others follow. rm and cm are the tables dwTapMasks
// builds. Each lane owns one tap and runs the scalar sequence of its
// sum, so the results are bit-identical to dwWeightRow's.
//
//go:noescape
func dwWeightAVX(dw, grad, x *float32, rm, cm *int32, n, h, width, oh, ow, pad int)

// dwGroupAVX is the channels one dwWeightAVX call covers, each channel's
// sums a chain of its own: the kernel's limit in the sixteen YMM
// registers, which was also the fastest of 2–3 at the models' planes.
const dwGroupAVX = 3

// dwTapStack is the size of the tap-mask tables a weight-gradient call
// keeps on its stack: nine lanes for every output row and column of a
// plane up to 32×32. A larger plane's tables are allocated.
const dwTapStack = 9 * 64

// dwLaneMasks builds the lane masks of a tierAVX stride-1 call into buf
// (or a new slice, for rows too wide for it): xm[i] is all ones where
// input column i-pad lies inside the row, gm[i] where output column
// i-(K-1) does, both zero elsewhere. Read eight at a time at offset o,
// xm gives the lanes of a forward block whose tap reads input columns
// o-pad onward and of a dx block at input column o-pad; gm those of a dx
// block whose tap reads output columns o-(K-1) onward and of a forward
// block at output column o-(K-1). Each table reaches past every offset a
// call reads at.
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

// dwBlockMasks builds the opmask table of a tierAVX512 stride-1 3×3
// call into buf (or a new slice, for rows too wide for it). A 16-lane
// block b of the destination row covers its columns 16b…16b+15, and its
// tap t reads the source row from column lo+16b+t on: entries 4b…4b+2
// hold the lanes whose source column lies inside the n the row holds,
// entry 4b+3 the lanes whose destination column is one of the st it
// holds.
func dwBlockMasks(buf []uint16, lo, n, st int) []uint16 {
	blocks := (st + 15) / 16
	if len(buf) < 4*blocks {
		buf = make([]uint16, 4*blocks)
	}
	m := buf[:4*blocks]
	for b := range blocks {
		for t := range 3 {
			m[4*b+t] = laneBits(-(lo + 16*b + t), n)
		}
		m[4*b+3] = laneBits(-16*b, st)
	}
	return m
}

// laneBits is the 16-lane opmask of the lanes l in [from, from+n).
func laneBits(from, n int) uint16 {
	var m uint16
	for l := max(from, 0); l < min(from+n, 16); l++ {
		m |= 1 << l
	}
	return m
}

// dwForwardLanes computes a depthwise forward pass in vector lanes, one
// call per plane, and reports whether it did: it declines without AVX
// and at stride > 1, where the row-run loops run.
func dwForwardLanes(od, wd, xd []float32, g convGeom) bool {
	if tier == tierGeneric || g.stride != 1 {
		return false
	}
	in, out, kk := g.h*g.w, g.oh*g.ow, g.kh*g.kw
	if tier == tierAVX512 && g.kw == 3 {
		var buf [dwMaskStack]uint16
		m := dwBlockMasks(buf[:], -g.pad, g.w, g.ow)
		for plane := 0; plane < g.n*g.c; plane++ {
			// Go cannot bounds-check the assembly: slicing whole planes
			// here panics on a short operand instead.
			op, xp := od[plane*out:][:out], xd[plane*in:][:in]
			wk := wd[plane%g.c*kk:][:kk]
			dwForwardAVX512(&op[0], &xp[0], &wk[0], &m[0], g.h, g.w, g.oh, g.ow, g.pad)
		}
		return true
	}
	var buf [dwMaskStack]int32
	xm, gm := dwLaneMasks(g, buf[:])
	for plane := 0; plane < g.n*g.c; plane++ {
		op, xp := od[plane*out:][:out], xd[plane*in:][:in]
		wk := wd[plane%g.c*kk:][:kk]
		dwForwardAVX(&op[0], &xp[0], &wk[0], &xm[0], &gm[g.kw-1], g.h, g.w, g.oh, g.ow, g.kw, g.pad)
	}
	return true
}

// dwInputGradLanes is dwForwardLanes for the input gradient: it
// overwrites dxd and leaves the weight gradient to its caller.
func dwInputGradLanes(dxd, gd, wd []float32, g convGeom) bool {
	if tier == tierGeneric || g.stride != 1 {
		return false
	}
	in, out, kk := g.h*g.w, g.oh*g.ow, g.kh*g.kw
	if tier == tierAVX512 && g.kw == 3 {
		var buf [dwMaskStack]uint16
		m := dwBlockMasks(buf[:], g.pad-2, g.ow, g.w)
		for plane := 0; plane < g.n*g.c; plane++ {
			dxp, gp := dxd[plane*in:][:in], gd[plane*out:][:out]
			wk := wd[plane%g.c*kk:][:kk]
			dwInputGradAVX512(&dxp[0], &gp[0], &wk[0], &m[0], g.h, g.w, g.oh, g.ow, g.pad)
		}
		return true
	}
	var buf [dwMaskStack]int32
	xm, gm := dwLaneMasks(g, buf[:])
	for plane := 0; plane < g.n*g.c; plane++ {
		dxp, gp := dxd[plane*in:][:in], gd[plane*out:][:out]
		wk := wd[plane%g.c*kk:][:kk]
		dwInputGradAVX(&dxp[0], &gp[0], &wk[0], &gm[g.pad], &xm[g.pad], g.h, g.w, g.oh, g.ow, g.kw, g.pad)
	}
	return true
}

// dwTapMasks builds the tap masks of a tierAVX stride-1 3×3
// weight-gradient call into buf (or a new slice, for planes too large
// for it): lane t of the nine at rm[9·oi] is all ones where kernel row
// t/3 of output row oi lies inside the image, lane t of the nine at
// cm[9·oj] where kernel column t%3 of output column oj does, and zero
// elsewhere.
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

// dwTapBits builds the tap table of a tierAVX512 stride-1 3×3
// weight-gradient call into buf (or a new slice): bit t of entry oi is
// set where kernel row t/3 of output row oi lies inside the image, bit t
// of entry oh+oj where kernel column t%3 of output column oj does.
func dwTapBits(g convGeom, buf []uint16) []uint16 {
	n := g.oh + g.ow
	if len(buf) < n {
		buf = make([]uint16, n)
	}
	tm := buf[:n]
	for oi := range g.oh {
		tm[oi] = 0
		for ki := range 3 {
			if ih := oi - g.pad + ki; ih >= 0 && ih < g.h {
				tm[oi] |= 7 << (3 * ki)
			}
		}
	}
	for oj := range g.ow {
		tm[g.oh+oj] = 0
		for kj := range 3 {
			if iw := oj - g.pad + kj; iw >= 0 && iw < g.w {
				tm[g.oh+oj] |= 0x49 << kj
			}
		}
	}
	return tm
}

// dwWeightLanes accumulates a depthwise weight gradient in vector lanes
// and reports whether it did: it declines without AVX, at stride > 1 and
// for kernels other than 3×3, where dwWeightRow or dwBackwardRow runs.
func dwWeightLanes(dwd, gd, xd []float32, g convGeom) bool {
	if tier == tierGeneric || g.stride != 1 || g.kh != 3 {
		return false
	}
	if tier == tierAVX512 {
		dwWeightStaged(dwd, gd, xd, g)
		return true
	}
	var buf [dwTapStack]int32
	rm, cm := dwTapMasks(g, buf[:])
	in, out := g.h*g.w, g.oh*g.ow
	for ni := range g.n {
		for c0 := 0; c0 < g.c; c0 += dwGroupAVX {
			nc := min(dwGroupAVX, g.c-c0)
			plane := ni*g.c + c0
			// As in dwForwardLanes, slicing the group's whole planes
			// panics on a short operand instead.
			dws, gp, xp := dwd[9*c0:][:9*nc], gd[plane*out:][:nc*out], xd[plane*in:][:nc*in]
			dwWeightAVX(&dws[0], &gp[0], &xp[0], &rm[0], &cm[0], nc, g.h, g.w, g.oh, g.ow, g.pad)
		}
	}
	return true
}

// dwWeightStaged is dwWeightLanes on tierAVX512: a lane per channel, one
// group of 16 channels at a time. For each image, ascending, the group's
// input and gradient planes are staged channels-last (dwStageAVX512) in a
// buffer borrowed from packArenas, so every tap load of dwWeightAVX512
// is one aligned 64-byte line; the group's sums ride across the images
// in a tap-major copy of its slice of dW.
func dwWeightStaged(dwd, gd, xd []float32, g convGeom) {
	var buf [dwMaskStack]uint16
	tm := dwTapBits(g, buf[:])
	in, out := g.h*g.w, g.oh*g.ow
	xn, gn := (in+15)&^15*16, (out+15)&^15*16
	ar := packArenas.getLocal()
	staged := aligned64(ar.Get(xn + gn + 9*16 + 16).data)
	xs, gs, sums := staged[:xn], staged[xn:xn+gn], staged[xn+gn:][:9*16]
	for c0 := 0; c0 < g.c; c0 += 16 {
		nc := min(16, g.c-c0)
		dws := dwd[9*c0:][:9*nc]
		clear(sums)
		for c := range nc {
			for t := range 9 {
				sums[16*t+c] = dws[9*c+t]
			}
		}
		for ni := range g.n {
			plane := ni*g.c + c0
			// As in dwForwardLanes, slicing the group's whole planes
			// panics on a short operand instead.
			xp, gp := xd[plane*in:][:nc*in], gd[plane*out:][:nc*out]
			dwStageAVX512(&xs[0], &xp[0], in, nc)
			dwStageAVX512(&gs[0], &gp[0], out, nc)
			dwWeightAVX512(&sums[0], &gs[0], &xs[0], &tm[0], g.h, g.w, g.oh, g.ow, g.pad)
		}
		for c := range nc {
			for t := range 9 {
				dws[9*c+t] = sums[16*t+c]
			}
		}
	}
	packArenas.putLocal(ar)
}

// aligned64 returns the part of buf from its first float on a 64-byte
// boundary: at most 15 floats shorter.
func aligned64(buf []float32) []float32 {
	off := -uintptr(unsafe.Pointer(&buf[0])) % 64 / 4
	return buf[off:]
}
