package tensor

import "fmt"

// Depthwise convolution (channel multiplier 1): channel c of an NCHW input
// is convolved with its own K×K filter w[c].
//
// At stride 1 from tierAVX up the forward pass and the input gradient
// run in vector lanes (dwconv_amd64.s), one call per plane: each lane
// owns one output column (forward) or one input column (input gradient)
// and runs exactly the scalar sequence below for it, over whole rows,
// border columns and a ragged last block included. On tierAVX512 a 3×3
// kernel runs 16 lanes to a ZMM and four rows at a time, each row's sums
// a chain of their own, and loads each source row's taps once for every
// row of the four that reads them; otherwise one row runs at a time in
// eight lanes. Borders are masks, not loops: no lane reads the float
// before a row or the one after it, a lane past the row's end is never
// stored, and a term the contract skips — a padding tap, an exactly-zero
// gradient — adds nothing. In eight lanes its product is ANDed to +0
// before the add. That is exact: an output starts from +0 and so does a
// dx pixel, a sum of floats that starts at +0 can never be −0 under
// round-to-nearest, and s + (+0) is s for every other s, NaN and
// infinities included. In 16 the add itself is masked.
//
// The weight gradient of a 3×3 kernel at stride 1 runs in lanes too,
// one call per image and group of channels, images ascending: each lane
// owns one sum and runs its chain in the order below, and the group's
// other sums, independent chains, run beside it. On tierAVX512 a lane is
// one channel of one tap's sum, sixteen channels to a group, its
// operands a channels-last copy of the group's input and gradient planes
// made per image in a buffer borrowed from packArenas; on tierAVX a lane
// is one tap of one channel, three channels to a group, read in place.
// Its sums are seeded from dW and can hold −0, so a term the contract
// skips is not ANDed to +0 but never added. Other kernel sizes add one
// tap run at a time (dwWeightRow).
//
// Everywhere else — without AVX, and at stride > 1 — the kernels work in
// row runs: for one output row and one kernel tap, the output columns
// whose input column falls inside the image form one contiguous run
// (tapRun), computed once per call, and the inner loop walks that run
// over plain row slices with no per-element bounds test.
//
// Accumulation order is part of the contract — the engine's equivalence
// suites compare runs bit for bit — and is that of the direct six-deep
// loop:
//
//   - an output element starts from zero and adds its taps in ascending
//     (ki, kj) order, padding taps skipped;
//   - a weight-gradient tap adds its terms in ascending (image, output
//     row, output column) order;
//   - an input-gradient pixel adds its terms in ascending (output row,
//     output column) order, which for one output row is descending kj;
//   - an output position whose gradient is exactly zero (either sign)
//     contributes nothing at all, not even a signed zero or a NaN.
//
// Each product is one rounded multiply and each sum one rounded add; no
// multiply-add is fused.

// checkDWConv validates a depthwise convolution's operands and returns
// its geometry; the kernel is square (kh == kw).
func checkDWConv(op string, w, x *Tensor, stride, pad int) convGeom {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: %s requires NCHW input, got shape %v", op, x.shape))
	}
	g := convGeom{n: x.shape[0], c: x.shape[1], h: x.shape[2], w: x.shape[3], stride: stride, pad: pad}
	if len(w.shape) != 4 || w.shape[0] != g.c || w.shape[1] != 1 || w.shape[2] != w.shape[3] {
		panic(fmt.Sprintf("tensor: %s weight shape %v, want [%d 1 K K]", op, w.shape, g.c))
	}
	g.kh, g.kw = w.shape[2], w.shape[3]
	if stride < 1 || pad < 0 {
		panic(fmt.Sprintf("tensor: %s stride %d pad %d", op, stride, pad))
	}
	g.oh = ConvOutSize(g.h, g.kh, stride, pad)
	g.ow = ConvOutSize(g.w, g.kw, stride, pad)
	if g.oh <= 0 || g.ow <= 0 {
		panic(fmt.Sprintf("tensor: %s produces empty output for input %v kernel %d stride %d pad %d", op, x.shape, g.kh, stride, pad))
	}
	return g
}

func checkDWConvOut(g convGeom, op, what string, t *Tensor) {
	if len(t.shape) != 4 || t.shape[0] != g.n || t.shape[1] != g.c || t.shape[2] != g.oh || t.shape[3] != g.ow {
		panic(fmt.Sprintf("tensor: %s %s shape %v, want [%d %d %d %d]", op, what, t.shape, g.n, g.c, g.oh, g.ow))
	}
}

// DWConvForwardInto computes the depthwise convolution of x (NCHW) with
// w ([C,1,K,K]) into out ([N,C,OH,OW]), overwriting it.
func DWConvForwardInto(out, w, x *Tensor, stride, pad int) {
	g := checkDWConv("DWConvForwardInto", w, x, stride, pad)
	checkDWConvOut(g, "DWConvForwardInto", "output", out)
	dwConvForward(out.data, w.data, x.data, g)
}

// DWConvBackwardInto is the adjoint pass: given grad ([N,C,OH,OW]) it
// overwrites dx (x's shape) with the input gradient and accumulates the
// weight gradient into dw (w's shape), which keeps whatever it held.
func DWConvBackwardInto(dx, dw, grad, w, x *Tensor, stride, pad int) {
	g := checkDWConv("DWConvBackwardInto", w, x, stride, pad)
	checkDWConvOut(g, "DWConvBackwardInto", "grad", grad)
	mustSameShape("DWConvBackwardInto", dx, x)
	mustSameShape("DWConvBackwardInto", dw, w)
	dwConvBackward(dx.data, dw.data, grad.data, w.data, x.data, g)
}

// dwTapRuns fills lo[kj], hi[kj] with the output-column run of every kernel
// column, carving them from buf when it is large enough.
func dwTapRuns(g convGeom, buf []int) (lo, hi []int) {
	if len(buf) < 2*g.kw {
		buf = make([]int, 2*g.kw)
	}
	lo, hi = buf[:g.kw], buf[g.kw:2*g.kw]
	for kj := range lo {
		lo[kj], hi[kj] = tapRun(kj-g.pad, g.stride, g.w, g.ow)
	}
	return lo, hi
}

func dwConvForward(od, wd, xd []float32, g convGeom) {
	if dwForwardLanes(od, wd, xd, g) {
		return
	}
	var buf [16]int
	lo, hi := dwTapRuns(g, buf[:])
	for plane := 0; plane < g.n*g.c; plane++ {
		xp := xd[plane*g.h*g.w : (plane+1)*g.h*g.w]
		op := od[plane*g.oh*g.ow : (plane+1)*g.oh*g.ow]
		ci := plane % g.c
		wk := wd[ci*g.kh*g.kw : (ci+1)*g.kh*g.kw]
		for oi := 0; oi < g.oh; oi++ {
			dwForwardRow(op[oi*g.ow:(oi+1)*g.ow], xp, wk, g, lo, hi, oi*g.stride-g.pad)
		}
	}
}

// dwForwardRow computes one output row, one tap run at a time. ih0 is the
// input row under kernel row 0.
func dwForwardRow(orow, xp, wk []float32, g convGeom, lo, hi []int, ih0 int) {
	clear(orow)
	for ki := 0; ki < g.kh; ki++ {
		ih := ih0 + ki
		if ih < 0 || ih >= g.h {
			continue
		}
		xrow := xp[ih*g.w : (ih+1)*g.w]
		for kj := 0; kj < g.kw; kj++ {
			if lo[kj] == hi[kj] {
				continue
			}
			wv := wk[ki*g.kw+kj]
			o := orow[lo[kj]:hi[kj]]
			xi := lo[kj]*g.stride - g.pad + kj
			if g.stride == 1 {
				xs := xrow[xi:][:len(o)]
				for j := range o {
					o[j] += float32(xs[j] * wv)
				}
				continue
			}
			for j := range o {
				o[j] += float32(xrow[xi] * wv)
				xi += g.stride
			}
		}
	}
}

func dwConvBackward(dxd, dwd, gd, wd, xd []float32, g convGeom) {
	lanes := dwInputGradLanes(dxd, gd, wd, g)
	if lanes && dwWeightLanes(dwd, gd, xd, g) {
		return
	}
	if !lanes {
		clear(dxd)
	}
	var buf [16]int
	lo, hi := dwTapRuns(g, buf[:])
	for plane := 0; plane < g.n*g.c; plane++ {
		xp := xd[plane*g.h*g.w : (plane+1)*g.h*g.w]
		dxp := dxd[plane*g.h*g.w : (plane+1)*g.h*g.w]
		gp := gd[plane*g.oh*g.ow : (plane+1)*g.oh*g.ow]
		ci := plane % g.c
		wk := wd[ci*g.kh*g.kw : (ci+1)*g.kh*g.kw]
		dwk := dwd[ci*g.kh*g.kw : (ci+1)*g.kh*g.kw]
		for oi := 0; oi < g.oh; oi++ {
			grow := gp[oi*g.ow : (oi+1)*g.ow]
			ih0 := oi*g.stride - g.pad
			if lanes {
				dwWeightRow(grow, xp, dwk, g, lo, hi, ih0)
			} else {
				dwBackwardRow(grow, xp, dxp, wk, dwk, g, lo, hi, ih0)
			}
		}
	}
}

// dwBackwardRow scatters one gradient row into the input and weight
// gradients. Kernel columns run right to left so that an input pixel
// reached from several output columns of this row receives them in
// ascending column order.
func dwBackwardRow(grow, xp, dxp, wk, dwk []float32, g convGeom, lo, hi []int, ih0 int) {
	for ki := 0; ki < g.kh; ki++ {
		ih := ih0 + ki
		if ih < 0 || ih >= g.h {
			continue
		}
		xrow := xp[ih*g.w : (ih+1)*g.w]
		dxrow := dxp[ih*g.w : (ih+1)*g.w]
		for kj := g.kw - 1; kj >= 0; kj-- {
			if lo[kj] == hi[kj] {
				continue
			}
			wv := wk[ki*g.kw+kj]
			acc := dwk[ki*g.kw+kj]
			gs := grow[lo[kj]:hi[kj]]
			xi := lo[kj]*g.stride - g.pad + kj
			if g.stride == 1 {
				xs, ds := xrow[xi:][:len(gs)], dxrow[xi:][:len(gs)]
				for j, gv := range gs {
					if gv == 0 {
						continue
					}
					acc += float32(gv * xs[j])
					ds[j] += float32(gv * wv)
				}
			} else {
				for _, gv := range gs {
					if gv != 0 {
						acc += float32(gv * xrow[xi])
						dxrow[xi] += float32(gv * wv)
					}
					xi += g.stride
				}
			}
			dwk[ki*g.kw+kj] = acc
		}
	}
}

// dwWeightRow adds one gradient row's terms to a stride-1 weight
// gradient of a kernel other than 3×3, one tap run at a time, leaving
// the input gradient to the vector lanes.
func dwWeightRow(grow, xp, dwk []float32, g convGeom, lo, hi []int, ih0 int) {
	for ki := 0; ki < g.kh; ki++ {
		ih := ih0 + ki
		if ih < 0 || ih >= g.h {
			continue
		}
		xrow := xp[ih*g.w : (ih+1)*g.w]
		for kj := 0; kj < g.kw; kj++ {
			if lo[kj] == hi[kj] {
				continue
			}
			gs := grow[lo[kj]:hi[kj]]
			xs := xrow[lo[kj]-g.pad+kj:][:len(gs)]
			acc := dwk[ki*g.kw+kj]
			for j, gv := range gs {
				if gv != 0 {
					acc += gv * xs[j]
				}
			}
			dwk[ki*g.kw+kj] = acc
		}
	}
}
