package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowOperands is one input set for every row kernel: rows rows of d
// floats, the per-column parameters, and the seeds of the accumulated
// gradients.
type rowOperands struct {
	rows, d                  int
	x, grad, xhat, probs, th []float32
	gain, bias, dGain, dBias []float32
	invStd                   []float64
	eps                      float64
	scale                    float32
}

// rowAlloc hands the kernels their output memory: plain slices, or
// slices that end at an unmapped page (guard_test.go).
type rowAlloc struct {
	f32 func(n int) []float32
	f64 func(n int) []float64
}

var plainAlloc = rowAlloc{
	f32: func(n int) []float32 { return make([]float32, n) },
	f64: func(n int) []float64 { return make([]float64, n) },
}

func (a rowAlloc) copy32(src []float32) []float32 {
	dst := a.f32(len(src))
	copy(dst, src)
	return dst
}

// rowEdges are the float32 specials a row kernel meets: the transcendental
// kernels' edges (zeros, denormals, infinities, quiet and signalling NaNs
// of several payloads, both signs), values whose square or product
// overflows float32, and values just inside it.
func rowEdges() []float32 {
	return append(transcendEdges(), 3e38, -3e38, 1e20, -1e20, 1.5e19, 1e-20, -1e-45)
}

// rowMix is how a case draws its elements: ordinary values, each replaced
// by one of edges with probability p.
type rowMix struct {
	name  string
	edges []float32
	p     float64
}

var rowMixes = []rowMix{
	{"ordinary", nil, 0},
	{"edges", rowEdges(), 0.05},
	{"dense edges", rowEdges(), 0.4},
	// Finite values far apart in magnitude, of both signs: a row's float64
	// sums cancel and round, so a chain summed in another order moves the
	// result by far more than a float32 ulp.
	{"wide", []float32{1e20, -1e20, 1 << 40, -(1 << 40), 3e38, -3e38, 1e-30}, 0.3},
}

// newRowOperands draws a case from mix.
func newRowOperands(rng *rand.Rand, rows, d int, mix rowMix) *rowOperands {
	edges, special := mix.edges, mix.p
	draw := func(n int, lo, hi float32) []float32 {
		s := make([]float32, n)
		for i := range s {
			if rng.Float64() < special {
				s[i] = edges[rng.Intn(len(edges))]
			} else {
				s[i] = lo + (hi-lo)*rng.Float32()
			}
		}
		return s
	}
	n := rows * d
	c := &rowOperands{
		rows: rows, d: d,
		x: draw(n, -4, 4), grad: draw(n, -2, 2), xhat: draw(n, -3, 3), probs: draw(n, 0, 1), th: draw(n, -1, 1),
		gain: draw(d, 0.5, 1.5), bias: draw(d, -0.5, 0.5), dGain: draw(d, -1, 1), dBias: draw(d, -1, 1),
		invStd: make([]float64, rows),
		eps:    1e-5,
		scale:  0.25,
	}
	for i := range c.invStd {
		c.invStd[i] = 0.5 + rng.Float64()
		if rng.Float64() < special {
			c.invStd[i] = float64(edges[rng.Intn(len(edges))])
		}
	}
	return c
}

// cancelRowZero sets c's bias to the negated float32 rounding of row 0's
// x̂·gain, so that LayerNormInto's affine on that row cancels to the
// product's float32 rounding error. A multiply-add fused there adds the
// float64 product's own rounding error, which the float32 result shows
// at about one element in thirty.
func cancelRowZero(c *rowOperands) {
	var mean, s [1]float64
	layerNormStatsGeneric(mean[:], s[:], c.x[:c.d], c.d, c.eps)
	for j, v := range c.x[:c.d] {
		xh := (float64(v) - mean[0]) * s[0]
		c.bias[j] = -float32(xh * float64(c.gain[j]))
	}
}

// rowKernel runs one public row kernel on a case and returns every output
// as bit patterns, float32 and float64 alike.
type rowKernel struct {
	name string
	run  func(c *rowOperands, a rowAlloc) []uint64
}

func bits32(out []uint64, s ...[]float32) []uint64 {
	for _, v := range s {
		for _, f := range v {
			out = append(out, uint64(math.Float32bits(f)))
		}
	}
	return out
}

func bits64(out []uint64, s []float64) []uint64 {
	for _, f := range s {
		out = append(out, math.Float64bits(f))
	}
	return out
}

var rowKernels = []rowKernel{
	{"LayerNormInto", func(c *rowOperands, a rowAlloc) []uint64 {
		out, xhat, inv := a.f32(len(c.x)), a.f32(len(c.x)), a.f64(c.rows)
		LayerNormInto(out, xhat, inv, c.x, c.gain, c.bias, c.eps)
		evalOut := a.f32(len(c.x))
		LayerNormInto(evalOut, nil, nil, c.x, c.gain, c.bias, c.eps)
		return bits64(bits32(nil, out, xhat, evalOut), inv)
	}},
	{"LayerNormBackwardInto", func(c *rowOperands, a rowAlloc) []uint64 {
		dx, dGain, dBias := a.f32(len(c.grad)), a.copy32(c.dGain), a.copy32(c.dBias)
		LayerNormBackwardInto(dx, dGain, dBias, c.grad, c.xhat, c.gain, c.invStd)
		return bits32(nil, dx, dGain, dBias)
	}},
	{"SoftmaxInto", func(c *rowOperands, a rowAlloc) []uint64 {
		out, in := a.f32(len(c.x)), a.copy32(c.x)
		SoftmaxInto(out, c.x, c.d, c.scale)
		SoftmaxInto(in, in, c.d, c.scale)
		one := a.f32(len(c.x))
		SoftmaxInto(one, c.x, c.d, 1)
		return bits32(nil, out, in, one)
	}},
	{"SoftmaxBackwardInto", func(c *rowOperands, a rowAlloc) []uint64 {
		dx, in := a.f32(len(c.grad)), a.copy32(c.grad)
		SoftmaxBackwardInto(dx, c.probs, c.grad, c.d, c.scale)
		SoftmaxBackwardInto(in, c.probs, in, c.d, c.scale)
		return bits32(nil, dx, in)
	}},
	{"GELUInto", func(c *rowOperands, a rowAlloc) []uint64 {
		out, th, evalOut := a.f32(len(c.x)), a.f32(len(c.x)), a.f32(len(c.x))
		GELUInto(out, th, c.x)
		GELUInto(evalOut, evalOut, c.x)
		return bits32(nil, out, th, evalOut)
	}},
	{"GELUBackwardInto", func(c *rowOperands, a rowAlloc) []uint64 {
		dx, in := a.f32(len(c.grad)), a.copy32(c.grad)
		GELUBackwardInto(dx, c.grad, c.x, c.th)
		GELUBackwardInto(in, in, c.x, c.th)
		return bits32(nil, dx, in)
	}},
	{"AddRowBias", func(c *rowOperands, a rowAlloc) []uint64 {
		x := a.copy32(c.x)
		AddRowBias(x, c.bias)
		return bits32(nil, x)
	}},
	{"AddColumnSums", func(c *rowOperands, a rowAlloc) []uint64 {
		dst := a.copy32(c.dBias)
		AddColumnSums(dst, c.grad)
		return bits32(nil, dst)
	}},
	// MSEInto reduces the whole tensor, not rows: it runs on every length
	// of mseLengths the case holds and on the whole case, the lanes'
	// partial sums ending at each lane of a group of four.
	{"MSEInto", func(c *rowOperands, a rowAlloc) []uint64 {
		var out []uint64
		for _, n := range append(mseLengths, len(c.x)) {
			if n > len(c.x) {
				continue
			}
			grad := a.f32(n)
			loss := MSEInto(grad, c.x[len(c.x)-n:], c.xhat[len(c.x)-n:])
			out = append(bits32(out, grad), math.Float64bits(loss))
		}
		return out
	}},
}

// mseLengths are the lengths MSEInto's suites run short of a whole case:
// none, every ragged length 1–17 and the row lengths 32, 64 and 256.
var mseLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 64, 256}

// lanesAndGeneric runs k with the AVX lanes on and with the scalar loops
// alone, and names the first output bit that differs.
func lanesAndGeneric(k rowKernel, c *rowOperands, a rowAlloc) string {
	lanes := tier
	defer func() { tier = lanes }()
	tier = tierGeneric
	want := k.run(c, plainAlloc)
	tier = lanes
	got := k.run(c, a)
	if len(got) != len(want) {
		return fmt.Sprintf("%d outputs, the scalar loops give %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("output %d of %d: %#x, the scalar loops give %#x", i, len(want), got[i], want[i])
		}
	}
	return ""
}

// rowLengths are the row lengths the row-kernel suites run: every ragged
// length 1–17, so a row ends at each lane of a group of 4 and of 8, and
// the transformer's 32, 64 and 256.
var rowLengths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 64, 256}

// TestRowKernelsMatchGenericBits pins every row kernel's AVX lanes to its
// scalar loops bit for bit: at every row length of rowLengths, at row
// counts that leave every remainder after the groups of four rows and
// cross rowChunk, with outputs apart and in place, on every mix of
// rowMixes — ordinary values, with the LayerNorm affine of one row
// cancelling (cancelRowZero); rows salted with edges, several NaN
// payloads in one row, so a lane that adds or compares with its operands
// swapped returns the other payload, and infinities, zeros of both signs,
// denormals and float32 overflow; and wide rows, whose sums cancel.
func TestRowKernelsMatchGenericBits(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, d := range rowLengths {
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 13, rowChunk + 3, 2*rowChunk + 6} {
			if rows*d > 1<<14 {
				continue
			}
			for _, mix := range rowMixes {
				c := newRowOperands(rng, rows, d, mix)
				if mix.p == 0 {
					cancelRowZero(c)
				}
				for _, k := range rowKernels {
					if diff := lanesAndGeneric(k, c, plainAlloc); diff != "" {
						t.Fatalf("%s rows=%d d=%d %s: %s", k.name, rows, d, mix.name, diff)
					}
				}
			}
		}
	}
}

// TestMSEIntoSumsInDeclaredOrder holds MSEInto, on every tier the host
// has, to its stated order, written out here as the doc states it: four
// partial sums of interleaved elements, (s0+s1)+(s2+s3), then the ragged
// elements. Wide random cases run at every length of mseLengths and at
// 1023; and a constructed case tells the orders apart for certain: d0² is
// 9·2⁵⁰, whose float64 ulp is 2, and every other d² is 0 or 1, so a 1
// added to the large sum alone rounds away (ties to even) while 1 + 1
// added to it as one partial sum does not. One ascending chain, or the
// partial sums combined another way, gives another loss.
func TestMSEIntoSumsInDeclaredOrder(t *testing.T) {
	declared := func(pred, target []float32) float64 {
		var s [4]float64
		whole := len(pred) &^ 3
		for j := 0; j < whole; j++ {
			d := float64(pred[j]) - float64(target[j])
			s[j%4] += float64(d * d)
		}
		sum := (s[0] + s[1]) + (s[2] + s[3])
		for j := whole; j < len(pred); j++ {
			d := float64(pred[j]) - float64(target[j])
			sum += float64(d * d)
		}
		return sum / float64(len(pred))
	}
	type mseCase struct{ pred, target []float32 }
	var cases []mseCase
	rng := rand.New(rand.NewSource(57))
	for _, n := range append(mseLengths[1:], 1023) {
		c := newRowOperands(rng, n, 1, rowMixes[3])
		cases = append(cases, mseCase{c.x, c.xhat})
	}
	wide := []float32{3 << 25, 0, 1, 1, 0, 0, 1, 1, 1}
	for n := 4; n <= len(wide); n++ {
		pred, target := wide[:n], make([]float32, n)
		var chain float64
		for _, v := range pred {
			chain += float64(v) * float64(v)
		}
		if chain/float64(n) == declared(pred, target) {
			t.Fatalf("the constructed case at n=%d does not tell the declared order from one chain", n)
		}
		cases = append(cases, mseCase{pred, target})
	}
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, tk := range hostTiers(t) {
		tier = tk
		for _, c := range cases {
			n := len(c.pred)
			want := declared(c.pred, c.target)
			if got := MSEInto(make([]float32, n), c.pred, c.target); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d tier=%v: loss %v, the declared order gives %v", n, tk, got, want)
			}
		}
	}
}

// FuzzRowKernels checks every row kernel's lanes against its scalar loops
// on fuzzed bit patterns: the data fills every operand in turn, at a
// fuzzed row count and length. MSEInto runs over the whole case and
// every length of mseLengths it holds; the last seed holds them all.
func FuzzRowKernels(f *testing.F) {
	edges := rowEdges()
	seed := make([]byte, 4*len(edges))
	for i, x := range edges {
		binary.LittleEndian.PutUint32(seed[4*i:], math.Float32bits(x))
	}
	f.Add(seed, uint8(5), uint8(32), math.Float32bits(0.25))
	f.Add(seed[8:], uint8(8), uint8(9), math.Float32bits(1))
	f.Add(seed[4:], uint8(3), uint8(64), math.Float32bits(-0.5))
	f.Add(seed[12:], uint8(4), uint8(63), math.Float32bits(2))
	f.Fuzz(func(t *testing.T, data []byte, rowsB, dB uint8, scale uint32) {
		if len(data) < 4 {
			return
		}
		rows, d := 1+int(rowsB%12), 1+int(dB%80)
		words := len(data) / 4
		next := 0
		fill := func(n int) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(next%words):]))
				next++
			}
			return s
		}
		n := rows * d
		c := &rowOperands{
			rows: rows, d: d,
			x: fill(n), grad: fill(n), xhat: fill(n), probs: fill(n), th: fill(n),
			gain: fill(d), bias: fill(d), dGain: fill(d), dBias: fill(d),
			invStd: make([]float64, rows), eps: 1e-5, scale: math.Float32frombits(scale),
		}
		for i, v := range fill(rows) {
			c.invStd[i] = float64(v)
		}
		for _, k := range rowKernels {
			if diff := lanesAndGeneric(k, c, plainAlloc); diff != "" {
				t.Fatalf("%s rows=%d d=%d: %s", k.name, rows, d, diff)
			}
		}
	})
}

// BenchmarkRowKernels times every row kernel at the xfmr_inproc geometry
// of `go run ./benchmark`: LayerNorm over [16·32, 64], the attention
// softmax over [16·4·32, 32] scaled by 1/√16, GELU over the teacher MLP's
// [16·32, 256], and a Linear's bias add and bias-gradient sums on the same
// [16·32, 256]; and MSEInto, the conv blocks' loss, over conv_inproc's
// [16,16,16,16] activations (65,536 floats) and over 1,536 floats (a
// [4,6,8,8] activation), where a call's fixed costs show.
func BenchmarkRowKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	ln := newRowOperands(rng, 16*32, 64, rowMixes[0])
	sm := newRowOperands(rng, 16*4*32, 32, rowMixes[0])
	ff := newRowOperands(rng, 16*32, 256, rowMixes[0])
	mse := newRowOperands(rng, 16*16, 16*16, rowMixes[0])
	mseGrad := make([]float32, len(mse.x))
	out, xhat := make([]float32, len(ff.x)), make([]float32, len(ff.x))
	th, inv := make([]float32, len(ff.x)), make([]float64, 16*4*32)
	dGain, dBias := make([]float32, 256), make([]float32, 256)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"LayerNorm", func() {
			LayerNormInto(out[:len(ln.x)], xhat[:len(ln.x)], inv[:ln.rows], ln.x, ln.gain, ln.bias, ln.eps)
		}},
		{"LayerNormBackward", func() {
			LayerNormBackwardInto(out[:len(ln.x)], dGain[:64], dBias[:64], ln.grad, ln.xhat, ln.gain, ln.invStd)
		}},
		{"Softmax", func() { SoftmaxInto(out[:len(sm.x)], sm.x, sm.d, 0.25) }},
		{"SoftmaxBackward", func() { SoftmaxBackwardInto(out[:len(sm.x)], sm.probs, sm.grad, sm.d, 0.25) }},
		{"GELU", func() { GELUInto(out, th, ff.x) }},
		{"GELUBackward", func() { GELUBackwardInto(out, ff.grad, ff.x, ff.th) }},
		{"AddRowBias", func() { copy(out, ff.x); AddRowBias(out, ff.bias) }},
		{"AddColumnSums", func() { AddColumnSums(dBias, ff.grad) }},
		{"MSE/65536", func() { MSEInto(mseGrad, mse.x, mse.xhat) }},
		{"MSE/1536", func() { MSEInto(mseGrad[:1536], mse.x[:1536], mse.xhat[:1536]) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.run()
			}
		})
	}
}
