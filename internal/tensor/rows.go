package tensor

import (
	"fmt"
	"math"
)

// Row kernels: the transformer's per-row loops — LayerNorm forward and
// backward, the max-subtracted softmax and its backward, GELU and its
// backward, and a Linear layer's bias add and bias-gradient sums — and
// the conv blocks' distillation loss, the mean squared error.
//
// The scalar loops (the …Generic functions) are the contract. Three kinds
// of vector lanes run them on amd64 with AVX (rows_amd64.s), each bit for
// bit:
//
//   - Row lanes run the float64 reductions: a row's mean and variance,
//     its softmax maximum and sum, its backward dots. Each of four lanes
//     owns one row and runs that row's chain in ascending column order,
//     exactly as the scalar loop does, so four rows reduce at once with
//     no sum reordered. A kernel takes whole groups of four rows; the
//     scalar loop takes the rest.
//   - Element lanes run everything elementwise, one element per lane, in
//     the scalar loop's operand roles: float32 operands widened by
//     VCVTPS2PD and narrowed by VCVTPD2PS where the loop converts, a
//     VMULPD and a VADDPD where it multiplies and adds, and no fused
//     multiply-add anywhere. A column sum (a bias gradient) is one lane
//     per column, rows ascending. A kernel takes the whole groups of
//     columns of every row; the scalar loop takes the ragged columns.
//   - Sum lanes run a float64 sum over a whole tensor (MSEInto's) in the
//     declared four-lane order: element j goes to partial sum j mod 4,
//     each an ascending chain; the partial sums combine as
//     (s0 + s1) + (s2 + s3), and the elements past the last whole group
//     of four follow in order. The scalar loop is that order too, so the
//     lanes take the whole groups and it takes the rest.
//
// Every product the loops add is wrapped in an explicit conversion, which
// the language defines as a rounding point, so no port contracts it into
// a fused multiply-add either: the bits depend on the inputs alone.
//
// Per-row statistics live in rowChunk-long arrays on the caller's stack,
// so no kernel allocates.

// rowChunk is how many rows a kernel reduces before it runs their
// elementwise pass.
const rowChunk = 64

// rowCount returns how many d-long rows n floats hold, panicking unless
// they hold a whole number of them.
func rowCount(op string, n, d int) int {
	if n == 0 {
		return 0
	}
	if d <= 0 || n%d != 0 {
		panic(fmt.Sprintf("tensor: %s: %d floats are not rows of %d", op, n, d))
	}
	return n / d
}

func mustLen(op, name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("tensor: %s: %s has %d elements, want %d", op, name, got, want))
	}
}

// --- LayerNorm ---------------------------------------------------------------

// LayerNormInto normalizes each len(gain)-long row of x to zero mean and
// unit variance and applies the gain and bias:
//
//	mean = Σ float64(x) / d,  var = Σ (float64(x) − mean)² / d
//	s    = 1 / √(var + eps)
//	x̂    = (float64(x) − mean)·s
//	out  = float32(x̂·float64(gain) + float64(bias))
//
// each sum one float64 chain in ascending column order, the product x̂·gain
// rounded before the bias is added. It writes float32(x̂) to xhat and
// each row's s to invStd, each unless nil. out may not share memory with
// x.
func LayerNormInto(out, xhat []float32, invStd []float64, x, gain, bias []float32, eps float64) {
	d := len(gain)
	rows := rowCount("LayerNormInto", len(x), d)
	mustLen("LayerNormInto", "bias", len(bias), d)
	mustLen("LayerNormInto", "out", len(out), len(x))
	if xhat != nil {
		mustLen("LayerNormInto", "xhat", len(xhat), len(x))
	}
	if invStd != nil {
		mustLen("LayerNormInto", "invStd", len(invStd), rows)
	}
	var mean, scale [rowChunk]float64
	for r0 := 0; r0 < rows; r0 += rowChunk {
		n := min(rowChunk, rows-r0)
		xs, os, m, s := x[r0*d:(r0+n)*d], out[r0*d:(r0+n)*d], mean[:n], scale[:n]
		if invStd != nil {
			s = invStd[r0 : r0+n]
		}
		var xh []float32
		if xhat != nil {
			xh = xhat[r0*d : (r0+n)*d]
		}
		k := layerNormStatsLanes(m, s, xs, d, eps)
		layerNormStatsGeneric(m[k:], s[k:], xs[k*d:], d, eps)
		j := layerNormAffineLanes(os, xh, xs, gain, bias, m, s)
		layerNormAffineGeneric(os, xh, xs, gain, bias, m, s, j)
	}
}

// layerNormStatsGeneric writes the mean and s of each d-long row of x.
func layerNormStatsGeneric(mean, invStd []float64, x []float32, d int, eps float64) {
	for r := range mean {
		row := x[r*d : (r+1)*d]
		var m float64
		for _, v := range row {
			m = addFirst(m, float64(v))
		}
		m /= float64(d)
		var variance float64
		for _, v := range row {
			dv := float64(v) - m
			variance = addFirst(variance, float64(dv*dv))
		}
		variance /= float64(d)
		mean[r], invStd[r] = m, 1/math.Sqrt(variance+eps)
	}
}

// layerNormAffineGeneric writes columns lo… of each row's out and x̂.
func layerNormAffineGeneric(out, xhat, x, gain, bias []float32, mean, invStd []float64, lo int) {
	d := len(gain)
	for r := range mean {
		for j := lo; j < d; j++ {
			xh := mulFirst(float64(x[r*d+j])-mean[r], invStd[r])
			out[r*d+j] = float32(addFirst(mulFirst(float64(gain[j]), xh), float64(bias[j])))
			if xhat != nil {
				xhat[r*d+j] = float32(xh)
			}
		}
	}
}

// LayerNormBackwardInto propagates grad through LayerNormInto, given the
// forward's xhat and invStd, into dx, and adds the parameter gradients
// to dGain and dBias. Per row, with dx̂ = float64(gain)·float64(grad):
//
//	a  = Σ dx̂ / d,  b = Σ dx̂·float64(x̂) / d
//	dx = float32(s·(dx̂ − a − float64(x̂)·b))
//
// each sum one float64 chain in ascending column order; per column,
// dGain += float32(float64(grad)·float64(x̂)) and dBias += grad, rows
// ascending. dx may not share memory with grad or xhat.
func LayerNormBackwardInto(dx, dGain, dBias, grad, xhat, gain []float32, invStd []float64) {
	d := len(gain)
	rows := rowCount("LayerNormBackwardInto", len(grad), d)
	mustLen("LayerNormBackwardInto", "dGain", len(dGain), d)
	mustLen("LayerNormBackwardInto", "dBias", len(dBias), d)
	mustLen("LayerNormBackwardInto", "dx", len(dx), len(grad))
	mustLen("LayerNormBackwardInto", "xhat", len(xhat), len(grad))
	mustLen("LayerNormBackwardInto", "invStd", len(invStd), rows)
	var a, b [rowChunk]float64
	for r0 := 0; r0 < rows; r0 += rowChunk {
		n := min(rowChunk, rows-r0)
		gs, xs, ds, s := grad[r0*d:(r0+n)*d], xhat[r0*d:(r0+n)*d], dx[r0*d:(r0+n)*d], invStd[r0:r0+n]
		k := layerNormDotsLanes(a[:n], b[:n], gs, xs, gain)
		layerNormDotsGeneric(a[k:n], b[k:n], gs[k*d:], xs[k*d:], gain)
		j := layerNormDxLanes(ds, gs, xs, gain, a[:n], b[:n], s)
		layerNormDxGeneric(ds, gs, xs, gain, a[:n], b[:n], s, j)
	}
	j := layerNormParamGradLanes(dGain, dBias, grad, xhat)
	layerNormParamGradGeneric(dGain, dBias, grad, xhat, j)
}

// layerNormDotsGeneric writes each row's a and b.
func layerNormDotsGeneric(a, b []float64, grad, xhat, gain []float32) {
	d := len(gain)
	for r := range a {
		var sa, sb float64
		for j, g := range grad[r*d : (r+1)*d] {
			dxh := mulFirst(float64(gain[j]), float64(g))
			sa = addFirst(sa, dxh)
			sb = addFirst(mulFirst(dxh, float64(xhat[r*d+j])), sb)
		}
		a[r], b[r] = sa/float64(d), sb/float64(d)
	}
}

// Where both operands of an x86 add or multiply are NaN, the result is
// the first one's, quieted. The compiler may hand a commutative operation
// its operands in either order, and does so differently from one build
// to the next (a loop moved, the race detector, fuzzing's coverage), so
// wherever two NaNs of different payloads can meet, the loops name the
// first operand with these: the roles the layers' compiled loops had
// before they moved here, and the roles the lanes take. Either helper
// returns the same bits whichever way its own operation is compiled.

// addFirst is a + b with a the first operand.
func addFirst[T float32 | float64](a, b T) T {
	if a != a {
		b = a
	}
	return a + b
}

// mulFirst is a·b with a the first operand.
func mulFirst[T float32 | float64](a, b T) T {
	if a != a {
		b = a
	}
	return T(a * b)
}

// layerNormDxGeneric writes columns lo… of each row's dx.
func layerNormDxGeneric(dx, grad, xhat, gain []float32, a, b, invStd []float64, lo int) {
	d := len(gain)
	for r := range a {
		for j := lo; j < d; j++ {
			dxh := mulFirst(float64(gain[j]), float64(grad[r*d+j]))
			dx[r*d+j] = float32(mulFirst(dxh-a[r]-mulFirst(float64(xhat[r*d+j]), b[r]), invStd[r]))
		}
	}
}

// layerNormParamGradGeneric adds columns lo… of the parameter gradients.
func layerNormParamGradGeneric(dGain, dBias, grad, xhat []float32, lo int) {
	d := len(dGain)
	for r := 0; r < len(grad); r += d {
		xrow := xhat[r+lo : r+d]
		for j, g := range grad[r+lo : r+d] {
			dGain[lo+j] = addFirst(float32(mulFirst(float64(g), float64(xrow[j]))), dGain[lo+j])
			dBias[lo+j] = addFirst(dBias[lo+j], g)
		}
	}
}

// --- softmax -----------------------------------------------------------------

// SoftmaxInto writes the softmax of each d-long row of x, scaled, to out:
// with v = float32(x·scale), the row's maximum m (the first of equal
// values, and NaN only when the row starts with one),
//
//	e   = ExpInto(v − m)
//	out = float32(float64(e) · (1 / Σ float64(e)))
//
// the sum one float64 chain in ascending column order. out may be x.
func SoftmaxInto(out, x []float32, d int, scale float32) {
	rows := rowCount("SoftmaxInto", len(x), d)
	mustLen("SoftmaxInto", "out", len(out), len(x))
	var m [rowChunk]float32
	for r0 := 0; r0 < rows; r0 += rowChunk {
		n := min(rowChunk, rows-r0)
		xs, os := x[r0*d:(r0+n)*d], out[r0*d:(r0+n)*d]
		k := rowMaxLanes(m[:n], xs, d, scale)
		rowMaxGeneric(m[k:n], xs[k*d:], d, scale)
		j := softmaxShiftLanes(os, xs, m[:n], scale)
		softmaxShiftGeneric(os, xs, m[:n], scale, j)
	}
	ExpInto(out, out)
	var inv [rowChunk]float64
	for r0 := 0; r0 < rows; r0 += rowChunk {
		n := min(rowChunk, rows-r0)
		os := out[r0*d : (r0+n)*d]
		k := rowInvSumLanes(inv[:n], os, d)
		rowInvSumGeneric(inv[k:n], os[k*d:], d)
		j := scaleRowsLanes(os, inv[:n])
		scaleRowsGeneric(os, inv[:n], j)
	}
}

// rowMaxGeneric writes each d-long row's maximum of float32(x·scale).
func rowMaxGeneric(m []float32, x []float32, d int, scale float32) {
	for r := range m {
		row := x[r*d : (r+1)*d]
		mv := mulFirst(row[0], scale)
		for _, v := range row[1:] {
			if v := mulFirst(v, scale); v > mv {
				mv = v
			}
		}
		m[r] = mv
	}
}

// softmaxShiftGeneric writes columns lo… of float32(x·scale) − m.
func softmaxShiftGeneric(out, x, m []float32, scale float32, lo int) {
	d := len(x) / len(m)
	for r, mv := range m {
		for j := lo; j < d; j++ {
			out[r*d+j] = mulFirst(x[r*d+j], scale) - mv
		}
	}
}

// rowInvSumGeneric writes 1 / Σ float64(e) of each d-long row.
func rowInvSumGeneric(inv []float64, e []float32, d int) {
	for r := range inv {
		var sum float64
		for _, v := range e[r*d : (r+1)*d] {
			sum = addFirst(sum, float64(v))
		}
		inv[r] = 1 / sum
	}
}

// scaleRowsGeneric multiplies columns lo… of each row by its inv.
func scaleRowsGeneric(e []float32, inv []float64, lo int) {
	d := len(e) / len(inv)
	for r, s := range inv {
		for j := lo; j < d; j++ {
			e[r*d+j] = float32(mulFirst(float64(e[r*d+j]), s))
		}
	}
}

// SoftmaxBackwardInto propagates grad through SoftmaxInto, given its
// output probs, into dx. Per d-long row:
//
//	dot = Σ float64(grad)·float64(probs)
//	dx  = float32(float32(float64(probs)·(float64(grad) − dot))·scale)
//
// the dot one float64 chain in ascending column order. dx may be grad.
func SoftmaxBackwardInto(dx, probs, grad []float32, d int, scale float32) {
	rows := rowCount("SoftmaxBackwardInto", len(probs), d)
	mustLen("SoftmaxBackwardInto", "grad", len(grad), len(probs))
	mustLen("SoftmaxBackwardInto", "dx", len(dx), len(probs))
	var dot [rowChunk]float64
	for r0 := 0; r0 < rows; r0 += rowChunk {
		n := min(rowChunk, rows-r0)
		ps, gs, ds := probs[r0*d:(r0+n)*d], grad[r0*d:(r0+n)*d], dx[r0*d:(r0+n)*d]
		k := rowDotLanes(dot[:n], gs, ps, d)
		rowDotGeneric(dot[k:n], gs[k*d:], ps[k*d:], d)
		j := softmaxBackwardLanes(ds, ps, gs, dot[:n], scale)
		softmaxBackwardGeneric(ds, ps, gs, dot[:n], scale, j)
	}
}

// rowDotGeneric writes Σ float64(grad)·float64(probs) of each d-long row.
func rowDotGeneric(dot []float64, grad, probs []float32, d int) {
	for r := range dot {
		var s float64
		for j, p := range probs[r*d : (r+1)*d] {
			s = addFirst(s, mulFirst(float64(grad[r*d+j]), float64(p)))
		}
		dot[r] = s
	}
}

// softmaxBackwardGeneric writes columns lo… of each row's dx.
func softmaxBackwardGeneric(dx, probs, grad []float32, dot []float64, scale float32, lo int) {
	d := len(probs) / len(dot)
	for r, s := range dot {
		for j := lo; j < d; j++ {
			i := r*d + j
			dx[i] = mulFirst(float32(mulFirst(float64(grad[i])-s, float64(probs[i]))), scale)
		}
	}
}

// --- GELU --------------------------------------------------------------------

const (
	geluC float32 = 0.7978845608028654 // √(2/π)
	geluA float32 = 0.044715
)

// GELUInto writes the tanh-approximated GELU of x to out,
//
//	u   = float32(√(2/π)·(x + float32(0.044715·float32(float32(x·x)·x))))
//	out = float32(float32(0.5·x)·(1 + TanhInto(u)))
//
// every product rounded on its own, and the tanh to th, which may be out.
// out may not share memory with x.
func GELUInto(out, th, x []float32) {
	mustLen("GELUInto", "out", len(out), len(x))
	mustLen("GELUInto", "th", len(th), len(x))
	n := geluArgLanes(out, x)
	geluArgGeneric(out[n:], x[n:])
	TanhInto(th, out)
	n = geluOutLanes(out, x, th)
	geluOutGeneric(out[n:], x[n:], th[n:])
}

func geluArgGeneric(u, x []float32) {
	for i, v := range x {
		v3 := float32(float32(v*v) * v)
		u[i] = float32(geluC * (v + float32(geluA*v3)))
	}
}

func geluOutGeneric(out, x, th []float32) {
	for i, v := range x {
		out[i] = float32(float32(0.5*v) * (1 + th[i]))
	}
}

// GELUBackwardInto multiplies grad by GELU's derivative at x, given the
// forward's tanh th, into dx — 0.5·(1+th) + 0.5·x·(1−th²)·u′(x) with
// u′ = √(2/π)·(1 + 3·0.044715·x²), as:
//
//	w  = float32(x·(1 − float32(th·th)))
//	w  = w + float32(3·0.044715·float32(float32(w·x)·x))
//	dx = float32(grad·(float32(0.5·(1 + th)) + float32(0.5·√(2/π)·w)))
//
// x·(1 − th²) is taken first: it is zero once the tanh saturates, before
// x² can overflow. dx may be grad.
func GELUBackwardInto(dx, grad, x, th []float32) {
	mustLen("GELUBackwardInto", "dx", len(dx), len(grad))
	mustLen("GELUBackwardInto", "x", len(x), len(grad))
	mustLen("GELUBackwardInto", "th", len(th), len(grad))
	n := geluBackwardLanes(dx, grad, x, th)
	geluBackwardGeneric(dx[n:], grad[n:], x[n:], th[n:])
}

func geluBackwardGeneric(dx, grad, x, th []float32) {
	for i, v := range x {
		t := th[i]
		w := mulFirst(1-float32(t*t), v)
		w = addFirst(float32(3*geluA*mulFirst(v, mulFirst(w, v))), w)
		dx[i] = mulFirst(addFirst(float32(0.5*geluC*w), float32(0.5*(1+t))), grad[i])
	}
}

// --- bias rows and column sums -------------------------------------------------

// AddRowBias adds bias to each len(bias)-long row of x in place:
// x[r, j] = x[r, j] + bias[j].
func AddRowBias(x, bias []float32) {
	rowCount("AddRowBias", len(x), len(bias))
	j := addRowBiasLanes(x, bias)
	addRowBiasGeneric(x, bias, j)
}

// addRowBiasGeneric adds columns lo… of the bias.
func addRowBiasGeneric(x, bias []float32, lo int) {
	d := len(bias)
	for r := 0; r < len(x); r += d {
		for j := lo; j < d; j++ {
			x[r+j] = addFirst(x[r+j], bias[j])
		}
	}
}

// AddColumnSums adds to each dst[j] the column j of x's len(dst)-long
// rows, one float32 chain per column in ascending row order:
// dst[j] = (…(dst[j] + x[0, j]) + x[1, j]) … .
func AddColumnSums(dst, x []float32) {
	rowCount("AddColumnSums", len(x), len(dst))
	j := addColumnSumsLanes(dst, x)
	addColumnSumsGeneric(dst, x, j)
}

// addColumnSumsGeneric adds columns lo… of x.
func addColumnSumsGeneric(dst, x []float32, lo int) {
	d := len(dst)
	for r := 0; r < len(x); r += d {
		for j, v := range x[r+lo : r+d] {
			dst[lo+j] = addFirst(v, dst[lo+j])
		}
	}
}

// --- squared error -----------------------------------------------------------

// MSEInto returns the mean squared error of pred against target and
// writes its gradient with respect to pred to grad: with n = len(pred)
// and, per element, d = float64(pred) − float64(target),
//
//	grad = float32(2·d / n)
//	loss = Σ float64(d·d) / n
//
// the sum in the declared four-lane order: partial sum s_k adds the
// elements j < n &^ 3 with j mod 4 = k, ascending; then
// (s0 + s1) + (s2 + s3); then the elements from n &^ 3 on, in order. The
// gradient never reads the sum. grad may not share memory with pred or
// target.
func MSEInto(grad, pred, target []float32) float64 {
	mustLen("MSEInto", "target", len(target), len(pred))
	mustLen("MSEInto", "grad", len(grad), len(pred))
	n := float64(len(pred))
	var s [4]float64
	j := mseLanes(&s, grad, pred, target, n)
	return mseGeneric(&s, grad, pred, target, n, j) / n
}

// mseGeneric adds elements lo… (lo a multiple of 4) to the partial sums
// s, writes their gradient, and returns the whole sum in the declared
// order.
func mseGeneric(s *[4]float64, grad, pred, target []float32, n float64, lo int) float64 {
	whole := len(pred) &^ 3
	for j := lo; j < whole; j++ {
		d := float64(pred[j]) - float64(target[j])
		s[j&3] = addFirst(s[j&3], float64(d*d))
		grad[j] = float32(2 * d / n)
	}
	sum := addFirst(addFirst(s[0], s[1]), addFirst(s[2], s[3]))
	for j := whole; j < len(pred); j++ {
		d := float64(pred[j]) - float64(target[j])
		sum = addFirst(sum, float64(d*d))
		grad[j] = float32(2 * d / n)
	}
	return sum
}
