package tensor

import "fmt"

// Depthwise convolution (channel multiplier 1): channel c of an NCHW input
// is convolved with its own K×K filter w[c]. The kernels work in row runs:
// for one output row and one kernel tap, the output columns whose input
// column falls inside the image form one contiguous run (tapRun), computed
// once per call, and the inner loop walks that run over plain row slices
// with no per-element bounds test. The one shape the repository's models
// use, 3×3 at stride 1, has an unrolled nine-tap kernel for the interior
// of every row whose three input rows are inside the image.
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

// dwInterior3 reports the output columns [l,r) on which a 3×3 stride-1
// kernel has all three of its columns inside the image; rows qualify when
// their three input rows do. The unrolled kernels run there.
func dwInterior3(g convGeom, lo, hi []int) (l, r int, ok bool) {
	if g.kh != 3 || g.kw != 3 || g.stride != 1 {
		return 0, 0, false
	}
	l, r = lo[0], hi[2] // runs shift left as kj grows
	return l, r, l < r
}

func dwConvForward(od, wd, xd []float32, g convGeom) {
	var buf [16]int
	lo, hi := dwTapRuns(g, buf[:])
	l3, r3, fast3 := dwInterior3(g, lo, hi)
	for plane := 0; plane < g.n*g.c; plane++ {
		xp := xd[plane*g.h*g.w : (plane+1)*g.h*g.w]
		op := od[plane*g.oh*g.ow : (plane+1)*g.oh*g.ow]
		ci := plane % g.c
		wk := wd[ci*g.kh*g.kw : (ci+1)*g.kh*g.kw]
		for oi := 0; oi < g.oh; oi++ {
			orow := op[oi*g.ow : (oi+1)*g.ow]
			ih0 := oi*g.stride - g.pad
			if fast3 && ih0 >= 0 && ih0+3 <= g.h {
				x3 := xp[ih0*g.w:]
				dwForwardEdge3(orow, x3, g.w, g.pad, 0, l3, wk)
				dwForwardRow3(orow[l3:r3], x3[l3-g.pad:], g.w, wk)
				dwForwardEdge3(orow, x3, g.w, g.pad, r3, g.ow, wk)
			} else {
				dwForwardRow(orow, xp, wk, g, lo, hi, ih0)
			}
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
					o[j] += xs[j] * wv
				}
				continue
			}
			for j := range o {
				o[j] += xrow[xi] * wv
				xi += g.stride
			}
		}
	}
}

// dwForwardRow3 is the 3×3 stride-1 interior: o[j] is the full nine-tap
// sum over the window whose top-left input element is x[j]; x's rows are
// w apart.
func dwForwardRow3(o, x []float32, w int, wk []float32) {
	n := len(o)
	r0, r1, r2 := x[:n+2], x[w:w+n+2], x[2*w:2*w+n+2]
	w00, w01, w02 := wk[0], wk[1], wk[2]
	w10, w11, w12 := wk[3], wk[4], wk[5]
	w20, w21, w22 := wk[6], wk[7], wk[8]
	for j := range o {
		_, _, _ = r0[j+2], r1[j+2], r2[j+2]
		var s float32
		s += r0[j] * w00
		s += r0[j+1] * w01
		s += r0[j+2] * w02
		s += r1[j] * w10
		s += r1[j+1] * w11
		s += r1[j+2] * w12
		s += r2[j] * w20
		s += r2[j+1] * w21
		s += r2[j+2] * w22
		o[j] = s
	}
}

// dwForwardEdge3 computes the border columns [a,b) of a row dwForwardRow3
// computes the interior of, element by element: x starts at the row under
// kernel row 0, all three kernel rows are inside the image, and only the
// window's columns need clipping. A tap run there is a column or two
// long, too short to pay for itself.
func dwForwardEdge3(orow, x []float32, w, pad, a, b int, wk []float32) {
	for oj := a; oj < b; oj++ {
		iw0 := oj - pad
		kj0, kj1 := max(0, -iw0), min(3, w-iw0)
		var s float32
		for ki := 0; ki < 3; ki++ {
			for kj := kj0; kj < kj1; kj++ {
				s += x[ki*w+iw0+kj] * wk[3*ki+kj]
			}
		}
		orow[oj] = s
	}
}

func dwConvBackward(dxd, dwd, gd, wd, xd []float32, g convGeom) {
	var buf [16]int
	lo, hi := dwTapRuns(g, buf[:])
	l3, r3, fast3 := dwInterior3(g, lo, hi)
	clear(dxd)
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
			if fast3 && ih0 >= 0 && ih0+3 <= g.h {
				x3, dx3 := xp[ih0*g.w:], dxp[ih0*g.w:]
				dwBackwardEdge3(grow, x3, dx3, g.w, g.pad, 0, l3, wk, dwk)
				dwBackwardRow3(grow[l3:r3], x3[l3-g.pad:], dx3[l3-g.pad:], g.w, wk, dwk)
				dwBackwardEdge3(grow, x3, dx3, g.w, g.pad, r3, g.ow, wk, dwk)
			} else {
				dwBackwardRow(grow, xp, dxp, wk, dwk, g, lo, hi, ih0)
			}
		}
	}
}

// dwBackwardRow scatters one gradient row. Kernel columns run right to
// left so that an input pixel reached from several output columns of this
// row receives them in ascending column order.
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
					acc += gv * xs[j]
					ds[j] += gv * wv
				}
			} else {
				for _, gv := range gs {
					if gv != 0 {
						acc += gv * xrow[xi]
						dxrow[xi] += gv * wv
					}
					xi += g.stride
				}
			}
			dwk[ki*g.kw+kj] = acc
		}
	}
}

// dwBackwardRow3 is the 3×3 stride-1 interior of one gradient row: gs[j]
// scatters over the window whose top-left element is x[j] / dx[j]; rows
// are w apart. One kernel row per sweep keeps the three tap accumulators
// and three weights in registers; a dx pixel is only ever touched by the
// sweep of its own row, in ascending j.
func dwBackwardRow3(gs, x, dx []float32, w int, wk, dwk []float32) {
	n := len(gs)
	for ki := 0; ki < 3; ki++ {
		xr, dr := x[ki*w:ki*w+n+2], dx[ki*w:ki*w+n+2]
		wr, dwr := wk[3*ki:3*ki+3], dwk[3*ki:3*ki+3]
		w0, w1, w2 := wr[0], wr[1], wr[2]
		a0, a1, a2 := dwr[0], dwr[1], dwr[2]
		for j, gv := range gs {
			if gv == 0 {
				continue
			}
			_, _ = xr[j+2], dr[j+2]
			a0 += gv * xr[j]
			dr[j] += gv * w0
			a1 += gv * xr[j+1]
			dr[j+1] += gv * w1
			a2 += gv * xr[j+2]
			dr[j+2] += gv * w2
		}
		dwr[0], dwr[1], dwr[2] = a0, a1, a2
	}
}

// dwBackwardEdge3 scatters the border columns [a,b) of a row
// dwBackwardRow3 scatters the interior of; see dwForwardEdge3. This is the
// direct loop with its tests hoisted, so its order needs no argument.
func dwBackwardEdge3(grow, x, dx []float32, w, pad, a, b int, wk, dwk []float32) {
	for oj := a; oj < b; oj++ {
		gv := grow[oj]
		if gv == 0 {
			continue
		}
		iw0 := oj - pad
		kj0, kj1 := max(0, -iw0), min(3, w-iw0)
		for ki := 0; ki < 3; ki++ {
			for kj := kj0; kj < kj1; kj++ {
				i := ki*w + iw0 + kj
				dwk[3*ki+kj] += gv * x[i]
				dx[i] += gv * wk[3*ki+kj]
			}
		}
	}
}
