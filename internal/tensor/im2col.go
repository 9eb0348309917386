package tensor

import "fmt"

// ConvOutSize returns the spatial output size of a convolution with the
// given input size, kernel, stride and symmetric padding.
func ConvOutSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// tapRun returns the run [lo,hi) ⊆ [0,n) of positions p whose input
// coordinate i0 + p*stride lies inside [0,size).
func tapRun(i0, stride, size, n int) (lo, hi int) {
	if i0 < 0 {
		lo = (stride - 1 - i0) / stride
	}
	hi = n
	if i0 >= size {
		hi = 0
	} else if end := (size-1-i0)/stride + 1; end < hi {
		hi = end
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// --- shape validation --------------------------------------------------------

func im2ColDims(x *Tensor, kh, kw, stride, pad int) (n, c, oh, ow int) {
	if len(x.shape) != 4 {
		panic(fmt.Sprintf("tensor: Im2Col requires NCHW tensor, got shape %v", x.shape))
	}
	n, c = x.shape[0], x.shape[1]
	h, w := x.shape[2], x.shape[3]
	oh = ConvOutSize(h, kh, stride, pad)
	ow = ConvOutSize(w, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col produces empty output for input %v kernel %dx%d stride %d pad %d", x.shape, kh, kw, stride, pad))
	}
	return n, c, oh, ow
}

func checkIm2ColOut(out, x *Tensor, kh, kw, stride, pad int) (n, c, h, w, oh, ow int) {
	n, c, oh, ow = im2ColDims(x, kh, kw, stride, pad)
	h, w = x.shape[2], x.shape[3]
	if len(out.shape) != 2 || out.shape[0] != c*kh*kw || out.shape[1] != n*oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColInto output shape %v, want [%d %d]", out.shape, c*kh*kw, n*oh*ow))
	}
	return n, c, h, w, oh, ow
}

func checkCol2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) (oh, ow int) {
	oh = ConvOutSize(h, kh, stride, pad)
	ow = ConvOutSize(w, kw, stride, pad)
	wantRows, wantCols := c*kh*kw, n*oh*ow
	if len(cols.shape) != 2 || cols.shape[0] != wantRows || cols.shape[1] != wantCols {
		panic(fmt.Sprintf("tensor: Col2Im input shape %v, want [%d %d]", cols.shape, wantRows, wantCols))
	}
	return oh, ow
}

// --- fused conv GEMMs --------------------------------------------------------

// convGeom is the geometry of one im2col lowering: the virtual column
// matrix has K = c*kh*kw rows and S = n*oh*ow columns.
type convGeom struct {
	n, c, h, w, oh, ow, kh, kw, stride, pad int
}

func (g convGeom) colRows() int { return g.c * g.kh * g.kw }
func (g convGeom) colCols() int { return g.n * g.oh * g.ow }

// padded returns the height and width of an input plane inside its zero
// border.
func (g convGeom) padded() (hp, wp int) { return g.h + 2*g.pad, g.w + 2*g.pad }

// at returns the column-matrix element (row p, column j): the input value
// under kernel tap p at output position j, zero in the padding. It is the
// scalar definition the fused packers below gather with, and the oracle
// the fusion tests compare against.
func (g convGeom) at(xd []float32, p, j int) float32 {
	kj := p % g.kw
	ki := (p / g.kw) % g.kh
	ci := p / (g.kw * g.kh)
	oj := j % g.ow
	oi := (j / g.ow) % g.oh
	ni := j / (g.ow * g.oh)
	ih := oi*g.stride - g.pad + ki
	iw := oj*g.stride - g.pad + kj
	if ih < 0 || ih >= g.h || iw < 0 || iw >= g.w {
		return 0
	}
	return xd[((ni*g.c+ci)*g.h+ih)*g.w+iw]
}

// convOperands validates a fused conv GEMM call and describes it. For
// layoutConv, out = a·cols image by image (a: [OutC, K], out: [N, OutC,
// OH, OW]): a batch of N GEMMs that share a, instance q reading image
// q's planes, its [OutC, OH·OW] block image q's slice of out. For
// layoutConvT, out = a·colsᵀ in one GEMM (a: the output gradient [OutC,
// S], out: [OutC, K]). cols is the [K, S] column matrix of x.
func convOperands(op string, layout gemmLayout, out, a, x *Tensor, kh, kw, stride, pad int) gemmOperands {
	n, c, oh, ow := im2ColDims(x, kh, kw, stride, pad)
	g := convGeom{n: n, c: c, h: x.shape[2], w: x.shape[3], oh: oh, ow: ow,
		kh: kh, kw: kw, stride: stride, pad: pad}
	k := g.colRows()
	if layout == layoutConvT {
		// The dW GEMM reduces over the S output positions; its output
		// columns are the K kernel taps.
		k = g.colCols()
	}
	if len(a.shape) != 2 || a.shape[1] != k {
		panic(fmt.Sprintf("tensor: %s operand shape %v, want [*, %d]", op, a.shape, k))
	}
	m := a.shape[0]
	if layout == layoutConvT {
		if len(out.shape) != 2 || out.shape[0] != m || out.shape[1] != g.colRows() {
			panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d]", op, out.shape, m, g.colRows()))
		}
		return gemmOperands{out: out.data, a: a.data, b: x.data, g: 1, m: m, k: k, n: g.colRows(), layout: layout, conv: g}
	}
	if len(out.shape) != 4 || out.shape[0] != n || out.shape[1] != m || out.shape[2] != oh || out.shape[3] != ow {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d %d %d]", op, out.shape, n, m, oh, ow))
	}
	g.n = 1
	return gemmOperands{out: out.data, a: a.data, b: x.data, g: n, m: m, k: k, n: oh * ow,
		bs: c * g.h * g.w, layout: layout, conv: g}
}

// padPlanes copies input planes [lo, hi) — plane ni·C + c of an NCHW x —
// into xp, each inside a border of g.pad zeros (padded() floats a side).
// The border is written on every call, since xp is arena memory an
// earlier call may have filled. What a stride-1 conv forward reads in
// place when it pads: tap (c, ki, kj) of the 8 output positions from
// (ni, oi, oj) is then 8 consecutive floats from
// xp[((ni·C + c)·Hp + oi + ki)·Wp + oj + kj], zeros included.
func padPlanes(xp, x []float32, g convGeom, lo, hi int) {
	hp, wp := g.padded()
	for pl := lo; pl < hi; pl++ {
		dst, src := xp[pl*hp*wp:(pl+1)*hp*wp], x[pl*g.h*g.w:(pl+1)*g.h*g.w]
		clear(dst[:g.pad*wp+g.pad]) // the top rows and row 0's left border
		for ih := 0; ih < g.h; ih++ {
			d := (g.pad+ih)*wp + g.pad
			copy(dst[d:d+g.w], src[ih*g.w:(ih+1)*g.w])
			clear(dst[d+g.w : d+g.w+2*g.pad]) // its right border, the next row's left
		}
		clear(dst[(g.pad+g.h)*wp:])
	}
}

// im2colPackPanels packs panels [pan0,pan1) of the virtual column matrix
// straight from the NCHW input — the fused replacement for materializing
// im2col output and re-packing it. Produces exactly the values
// packBPanels would produce from a materialized column matrix. It is the
// conv forward's fallback: a stride-1 conv whose output width is a
// multiple of nrTile reads its taps in place instead (bInPlace), so this
// packs for strided convs and ragged output widths only.
//
// A panel is nrTile consecutive output positions, so it is one run of
// columns per output row it touches (never more than nrTile).
// For a run and a kernel column kj the positions whose input column lies
// inside the image are again one run (tapRun), the same for every channel
// and kernel row, so each tap row of the panel is a clipped contiguous
// copy over a zeroed panel — no per-element bounds test anywhere.
func im2colPackPanels(bp, xd []float32, g convGeom, pan0, pan1 int) {
	K, S := g.colRows(), g.colCols()
	chanSrc, chanDst := g.h*g.w, g.kh*g.kw*nrTile
	for pan := pan0; pan < pan1; pan++ {
		j0 := pan * nrTile
		w := min(nrTile, S-j0)
		dst := bp[pan*K*nrTile : (pan+1)*K*nrTile]
		clear(dst) // padding taps and a partial panel's tail stay zero
		for c0 := 0; c0 < w; {
			j := j0 + c0
			oj := j % g.ow
			oi := (j / g.ow) % g.oh
			ni := j / (g.ow * g.oh)
			run := min(w-c0, g.ow-oj)
			for kj := 0; kj < g.kw; kj++ {
				iw0 := oj*g.stride - g.pad + kj
				lo, hi := tapRun(iw0, g.stride, g.w, run)
				if lo == hi {
					continue
				}
				for ki := 0; ki < g.kh; ki++ {
					ih := oi*g.stride - g.pad + ki
					if ih < 0 || ih >= g.h {
						continue
					}
					src := (ni*g.c*g.h+ih)*g.w + iw0 + lo*g.stride
					d := (ki*g.kw+kj)*nrTile + c0 + lo
					for ci := 0; ci < g.c; ci++ {
						gatherRun(dst[d:d+hi-lo], xd[src:], g.stride)
						src += chanSrc
						d += chanDst
					}
				}
			}
			c0 += run
		}
	}
}

// gatherRun sets dst[i] = src[i*stride].
func gatherRun(dst, src []float32, stride int) {
	if stride == 1 {
		copy(dst, src)
		return
	}
	for i := range dst {
		dst[i] = src[i*stride]
	}
}

// im2colPackPanelsT packs panels of the column matrix's transpose-as-TB
// operand for the dW GEMM: panel row p is output position p, element
// (p, c) the column-matrix value at (tap j0+c, output position p).
// Equivalent to packBPanelsTB over a materialized column matrix.
//
// The GEMM reduces over the positions, and both its operands keep them
// contiguous, so one operand must be transposed whatever the layout: the
// pack is that transpose. For a 1×1, stride-1, unpadded conv (every
// weight gradient the workloads take) panel j is x's channels 8j…8j+7,
// image by image, transposed: on the vector tiers 8×8 register
// transposes do the whole groups of 8 positions (transposeLanes), a
// partial panel's missing channels zero registers.
//
// Every other conv, and a 1×1 one the lanes decline (the generic tier, a
// plane under 8 positions), is filled one output row (ow positions, ow*nrTile floats) at a time: within it, tap
// c's valid positions are one run (tapRun, decoded once per panel) read
// contiguously from the input row and written down lane c of a zeroed
// block.
func im2colPackPanelsT(bp, xd []float32, g convGeom, pan0, pan1 int) {
	K, S := g.colRows(), g.colCols()
	pointwise := g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad == 0
	for pan := pan0; pan < pan1; pan++ {
		j0 := pan * nrTile
		w := min(nrTile, K-j0)
		dst := bp[pan*S*nrTile : (pan+1)*S*nrTile]
		if pointwise && transposeLanes(dst, xd, g, j0, w) {
			continue
		}
		// Decode the panel's kernel taps once: ki is the tap's kernel row,
		// off its input offset from (image, row ih, column 0) at the start
		// of its run [lo,hi).
		var ki, off, lo, hi [nrTile]int
		for c := 0; c < w; c++ {
			j := j0 + c
			kj := j % g.kw
			ki[c] = (j / g.kw) % g.kh
			ci := j / (g.kw * g.kh)
			lo[c], hi[c] = tapRun(kj-g.pad, g.stride, g.w, g.ow)
			off[c] = ci*g.h*g.w + lo[c]*g.stride - g.pad + kj
		}
		for ni := 0; ni < g.n; ni++ {
			for oi := 0; oi < g.oh; oi++ {
				p0 := (ni*g.oh + oi) * g.ow
				block := dst[p0*nrTile : (p0+g.ow)*nrTile]
				clear(block)
				for c := 0; c < w; c++ {
					ih := oi*g.stride - g.pad + ki[c]
					if ih < 0 || ih >= g.h || lo[c] == hi[c] {
						continue
					}
					src := xd[(ni*g.c*g.h+ih)*g.w+off[c]:]
					d := block[lo[c]*nrTile+c:]
					if g.stride == 1 {
						for i, v := range src[:hi[c]-lo[c]] {
							d[i*nrTile] = v
						}
						continue
					}
					for i := 0; i < hi[c]-lo[c]; i++ {
						d[i*nrTile] = src[i*g.stride]
					}
				}
			}
		}
	}
}

// --- range kernels -----------------------------------------------------------

// im2colRows fills output rows [lo,hi) of the column matrix. Each row is
// owned by exactly one (channel, kernel-offset) triple, so row ranges are
// disjoint and safe to fill in parallel. Within a row, every output row's
// valid positions are the same run, copied in one piece.
func im2colRows(od, xd []float32, n, c, h, w, kh, kw, oh, ow, stride, pad, lo, hi int) {
	cols := n * oh * ow
	for row := lo; row < hi; row++ {
		kj := row % kw
		ki := (row / kw) % kh
		ci := row / (kw * kh)
		orow := od[row*cols : (row+1)*cols]
		clear(orow)
		l, r := tapRun(kj-pad, stride, w, ow)
		if l == r {
			continue
		}
		for ni := 0; ni < n; ni++ {
			inBase := (ni*c + ci) * h * w
			for oi := 0; oi < oh; oi++ {
				ih := oi*stride - pad + ki
				if ih < 0 || ih >= h {
					continue // row already zeroed
				}
				outBase := (ni*oh + oi) * ow
				gatherRun(orow[outBase+l:outBase+r], xd[inBase+ih*w+l*stride-pad+kj:], stride)
			}
		}
	}
}

// col2imChannels folds input channels [lo,hi) of the column matrix back
// into the NCHW output. Overlapping kernel taps only ever accumulate
// within one input channel, so partitioning along C keeps every output
// element owned by a single range — and the (ki,kj,ni,oi,oj) accumulation
// order inside a channel matches the serial reference exactly.
func col2imChannels(od, cd []float32, n, c, h, w, kh, kw, oh, ow, stride, pad, lo, hi int) {
	total := n * oh * ow
	for ci := lo; ci < hi; ci++ {
		for ni := 0; ni < n; ni++ {
			base := (ni*c + ci) * h * w
			clear(od[base : base+h*w])
		}
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := ((ci*kh)+ki)*kw + kj
				rowBase := row * total
				l, r := tapRun(kj-pad, stride, w, ow)
				if l == r {
					continue
				}
				for ni := 0; ni < n; ni++ {
					outBase := (ni*c + ci) * h * w
					for oi := 0; oi < oh; oi++ {
						ih := oi*stride - pad + ki
						if ih < 0 || ih >= h {
							continue
						}
						colBase := rowBase + (ni*oh+oi)*ow
						src := cd[colBase+l : colBase+r]
						dst := od[outBase+ih*w+l*stride-pad+kj:]
						if stride == 1 {
							dst = dst[:len(src)]
							for i, v := range src {
								dst[i] += v
							}
							continue
						}
						for i, v := range src {
							dst[i*stride] += v
						}
					}
				}
			}
		}
	}
}
