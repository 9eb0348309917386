//go:build amd64

package tensor

// The row kernels' AVX lanes (rows_amd64.s). A row-lane kernel reduces
// groups of four rows, one row per float64 lane, and takes the number of
// groups; an element-lane kernel runs the first cols columns of every
// row, cols a positive multiple of its group of 4 (float64 lanes) or 8
// (float32 lanes), with rows d floats apart. A nil xhat is not written.

//go:noescape
func layerNormStatsAVX(mean, invStd *float64, x *float32, groups, d int, fd, eps float64)

//go:noescape
func layerNormAffineAVX(out, xhat, x, gain, bias *float32, mean, invStd *float64, rows, d, cols int)

//go:noescape
func layerNormDotsAVX(a, b *float64, grad, xhat, gain *float32, groups, d int, fd float64)

//go:noescape
func layerNormDxAVX(dx, grad, xhat, gain *float32, a, b, invStd *float64, rows, d, cols int)

//go:noescape
func layerNormParamGradAVX(dGain, dBias, grad, xhat *float32, rows, d, cols int)

//go:noescape
func rowMaxAVX(m, x *float32, groups, d int, scale float32)

//go:noescape
func softmaxShiftAVX(out, x, m *float32, rows, d, cols int, scale float32)

//go:noescape
func rowInvSumAVX(inv *float64, e *float32, groups, d int)

//go:noescape
func scaleRowsAVX(e *float32, inv *float64, rows, d, cols int)

//go:noescape
func rowDotAVX(dot *float64, grad, probs *float32, groups, d int)

//go:noescape
func softmaxBackwardAVX(dx, probs, grad *float32, dot *float64, rows, d, cols int, scale float32)

//go:noescape
func geluArgAVX(u, x *float32, n int, a, c float32)

//go:noescape
func geluOutAVX(out, x, th *float32, n int)

//go:noescape
func geluBackwardAVX(dx, grad, x, th *float32, n int, k3a, k05c float32)

//go:noescape
func addRowBiasAVX(x, bias *float32, rows, d, cols int)

//go:noescape
func addColumnSumsAVX(dst, x *float32, rows, d, cols int)

// mseAVX adds the first n elements' squared differences to the four
// partial sums at s, element j to s[j mod 4], and writes their gradient;
// n is a positive multiple of 4.
//
//go:noescape
func mseAVX(s *float64, grad, pred, target *float32, n int, fn float64)

// rowGroups returns how many whole groups of four rows a row-lane kernel
// takes: none without AVX.
func rowGroups(rows int) int {
	if tier == tierGeneric {
		return 0
	}
	return rows / 4
}

// laneCols returns how many leading columns of a d-long row an element
// lane kernel of width w takes: none without AVX or without rows. A flat
// kernel (GELU's) is one row.
func laneCols(rows, d, w int) int {
	if tier == tierGeneric || rows == 0 {
		return 0
	}
	return d &^ (w - 1)
}

// The …Lanes functions run what their kernel takes and return it: rows
// for a row-lane kernel, leading columns of every row or leading elements
// for an element-lane one.

func layerNormStatsLanes(mean, invStd []float64, x []float32, d int, eps float64) int {
	g := rowGroups(len(mean))
	if g == 0 {
		return 0
	}
	layerNormStatsAVX(&mean[0], &invStd[0], &x[0], g, d, float64(d), eps)
	return 4 * g
}

func layerNormAffineLanes(out, xhat, x, gain, bias []float32, mean, invStd []float64) int {
	d := len(gain)
	cols := laneCols(len(mean), d, 4)
	if cols == 0 {
		return 0
	}
	var xh *float32
	if xhat != nil {
		xh = &xhat[0]
	}
	layerNormAffineAVX(&out[0], xh, &x[0], &gain[0], &bias[0], &mean[0], &invStd[0], len(mean), d, cols)
	return cols
}

// layerNormDotsLanes reduces the leading whole groups of four of the
// rows in grad and xhat, at most len(a) of them, and returns how many.
func layerNormDotsLanes(a, b []float64, grad, xhat, gain []float32) int {
	g := rowGroups(min(len(a), len(grad)/len(gain)))
	if g == 0 {
		return 0
	}
	layerNormDotsAVX(&a[0], &b[0], &grad[0], &xhat[0], &gain[0], g, len(gain), float64(len(gain)))
	return 4 * g
}

func layerNormDxLanes(dx, grad, xhat, gain []float32, a, b, invStd []float64) int {
	d := len(gain)
	cols := laneCols(len(a), d, 4)
	if cols == 0 {
		return 0
	}
	layerNormDxAVX(&dx[0], &grad[0], &xhat[0], &gain[0], &a[0], &b[0], &invStd[0], len(a), d, cols)
	return cols
}

func layerNormParamGradLanes(dGain, dBias, grad, xhat []float32) int {
	d := len(dGain)
	cols := laneCols(len(grad)/max(d, 1), d, 4)
	if cols == 0 {
		return 0
	}
	layerNormParamGradAVX(&dGain[0], &dBias[0], &grad[0], &xhat[0], len(grad)/d, d, cols)
	return cols
}

func rowMaxLanes(m, x []float32, d int, scale float32) int {
	g := rowGroups(len(m))
	if g == 0 {
		return 0
	}
	rowMaxAVX(&m[0], &x[0], g, d, scale)
	return 4 * g
}

func softmaxShiftLanes(out, x, m []float32, scale float32) int {
	d := len(x) / len(m)
	cols := laneCols(len(m), d, 8)
	if cols == 0 {
		return 0
	}
	softmaxShiftAVX(&out[0], &x[0], &m[0], len(m), d, cols, scale)
	return cols
}

func rowInvSumLanes(inv []float64, e []float32, d int) int {
	g := rowGroups(len(inv))
	if g == 0 {
		return 0
	}
	rowInvSumAVX(&inv[0], &e[0], g, d)
	return 4 * g
}

func scaleRowsLanes(e []float32, inv []float64) int {
	d := len(e) / len(inv)
	cols := laneCols(len(inv), d, 4)
	if cols == 0 {
		return 0
	}
	scaleRowsAVX(&e[0], &inv[0], len(inv), d, cols)
	return cols
}

func rowDotLanes(dot []float64, grad, probs []float32, d int) int {
	g := rowGroups(len(dot))
	if g == 0 {
		return 0
	}
	rowDotAVX(&dot[0], &grad[0], &probs[0], g, d)
	return 4 * g
}

func softmaxBackwardLanes(dx, probs, grad []float32, dot []float64, scale float32) int {
	d := len(probs) / len(dot)
	cols := laneCols(len(dot), d, 4)
	if cols == 0 {
		return 0
	}
	softmaxBackwardAVX(&dx[0], &probs[0], &grad[0], &dot[0], len(dot), d, cols, scale)
	return cols
}

func geluArgLanes(u, x []float32) int {
	n := laneCols(1, len(x), 8)
	if n == 0 {
		return 0
	}
	geluArgAVX(&u[0], &x[0], n, geluA, geluC)
	return n
}

func geluOutLanes(out, x, th []float32) int {
	n := laneCols(1, len(x), 8)
	if n == 0 {
		return 0
	}
	geluOutAVX(&out[0], &x[0], &th[0], n)
	return n
}

func geluBackwardLanes(dx, grad, x, th []float32) int {
	n := laneCols(1, len(x), 8)
	if n == 0 {
		return 0
	}
	geluBackwardAVX(&dx[0], &grad[0], &x[0], &th[0], n, 3*geluA, 0.5*geluC)
	return n
}

func addRowBiasLanes(x, bias []float32) int {
	d := len(bias)
	cols := laneCols(len(x)/max(d, 1), d, 8)
	if cols == 0 {
		return 0
	}
	addRowBiasAVX(&x[0], &bias[0], len(x)/d, d, cols)
	return cols
}

func addColumnSumsLanes(dst, x []float32) int {
	d := len(dst)
	cols := laneCols(len(x)/max(d, 1), d, 8)
	if cols == 0 {
		return 0
	}
	addColumnSumsAVX(&dst[0], &x[0], len(x)/d, d, cols)
	return cols
}

// mseLanes runs the whole groups of four of MSEInto's elements and
// returns how many it took.
func mseLanes(s *[4]float64, grad, pred, target []float32, n float64) int {
	k := laneCols(1, len(pred), 4)
	if k == 0 {
		return 0
	}
	mseAVX(&s[0], &grad[0], &pred[0], &target[0], k, n)
	return k
}
