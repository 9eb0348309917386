package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dwConvForwardOracle is the direct depthwise convolution the row-run
// kernel replaced: one output element at a time, two bounds tests per
// multiply-add. It defines the accumulation order the kernel must keep.
func dwConvForwardOracle(od, wd, xd []float32, g convGeom) {
	k := g.kh
	for ni := 0; ni < g.n; ni++ {
		for ci := 0; ci < g.c; ci++ {
			inBase := (ni*g.c + ci) * g.h * g.w
			outBase := (ni*g.c + ci) * g.oh * g.ow
			wBase := ci * k * k
			for oi := 0; oi < g.oh; oi++ {
				for oj := 0; oj < g.ow; oj++ {
					var s float32
					for ki := 0; ki < k; ki++ {
						ih := oi*g.stride - g.pad + ki
						if ih < 0 || ih >= g.h {
							continue
						}
						for kj := 0; kj < k; kj++ {
							iw := oj*g.stride - g.pad + kj
							if iw < 0 || iw >= g.w {
								continue
							}
							s += xd[inBase+ih*g.w+iw] * wd[wBase+ki*k+kj]
						}
					}
					od[outBase+oi*g.ow+oj] = s
				}
			}
		}
	}
}

// dwConvBackwardOracle is the direct adjoint loop, likewise: dxd starts
// from zero, dwd accumulates, exact-zero gradients are skipped.
func dwConvBackwardOracle(dxd, dwd, gd, wd, xd []float32, g convGeom) {
	k := g.kh
	for i := range dxd {
		dxd[i] = 0
	}
	for ni := 0; ni < g.n; ni++ {
		for ci := 0; ci < g.c; ci++ {
			inBase := (ni*g.c + ci) * g.h * g.w
			outBase := (ni*g.c + ci) * g.oh * g.ow
			wBase := ci * k * k
			for oi := 0; oi < g.oh; oi++ {
				for oj := 0; oj < g.ow; oj++ {
					gv := gd[outBase+oi*g.ow+oj]
					if gv == 0 {
						continue
					}
					for ki := 0; ki < k; ki++ {
						ih := oi*g.stride - g.pad + ki
						if ih < 0 || ih >= g.h {
							continue
						}
						for kj := 0; kj < k; kj++ {
							iw := oj*g.stride - g.pad + kj
							if iw < 0 || iw >= g.w {
								continue
							}
							dwd[wBase+ki*k+kj] += gv * xd[inBase+ih*g.w+iw]
							dxd[inBase+ih*g.w+iw] += gv * wd[wBase+ki*k+kj]
						}
					}
				}
			}
		}
	}
}

// sprinkle overwrites each element of t with probability 1/every, cycling
// through specials.
func sprinkle(rng *rand.Rand, t *Tensor, every int, specials ...float32) {
	next := 0
	for i := range t.data {
		if rng.Intn(every) == 0 {
			t.data[i] = specials[next%len(specials)]
			next++
		}
	}
}

var (
	negZero = float32(math.Copysign(0, -1))
	nan32   = float32(math.NaN())
	posInf  = float32(math.Inf(1))
	negInf  = float32(math.Inf(-1))
)

// dwOracleImages are the image sizes of the oracle matrix, which also
// seed FuzzDWConv: square and not, smaller than an AVX block, a whole
// block, and past one.
var dwOracleImages = []struct{ h, w int }{{8, 8}, {16, 16}, {5, 9}, {9, 4}, {3, 5}, {1, 7}, {2, 2}}

// dwConvCase is one depthwise convolution's operands: seed is what the
// weight gradient holds before the backward pass adds to it.
type dwConvCase struct {
	x, w, grad, seed *Tensor
	stride, pad      int
}

// newDWConvCase draws a case's values from rng: gradients with exact
// zeros of both signs and, with special, every operand sprinkled with
// signed zeros, infinities and NaN. The weights take NaN and +Inf too,
// so a padding tap's product (+0 times the weight) is NaN unless the
// kernel skips it.
func newDWConvCase(rng *rand.Rand, n, c, h, w, k, stride, pad int, special bool) dwConvCase {
	d := dwConvCase{x: Rand(rng, -2, 2, n, c, h, w), w: Rand(rng, -1, 1, c, 1, k, k), stride: stride, pad: pad}
	g := checkDWConv("test", d.w, d.x, stride, pad)
	d.grad = Rand(rng, -1, 1, g.n, g.c, g.oh, g.ow)
	d.seed = Rand(rng, -1, 1, c, 1, k, k)
	sprinkle(rng, d.grad, 4, 0, negZero)
	if special {
		sprinkle(rng, d.x, 6, 0, negZero, posInf, nan32, negInf)
		sprinkle(rng, d.w, 5, 0, negZero, negInf, nan32, posInf)
		sprinkle(rng, d.grad, 6, nan32, posInf, negInf)
		sprinkle(rng, d.seed, 4, negZero, nan32)
	}
	return d
}

// check compares DWConvForwardInto and DWConvBackwardInto with the
// oracle loops on every kernel path and returns the first difference.
// Outputs start as a sentinel, so an element no path writes shows too.
func (d dwConvCase) check() string {
	g := checkDWConv("test", d.w, d.x, d.stride, d.pad)
	want := New(g.n, g.c, g.oh, g.ow)
	dwConvForwardOracle(want.data, d.w.data, d.x.data, g)
	wantDX, wantDW := New(d.x.shape...), d.seed.Clone()
	dwConvBackwardOracle(wantDX.data, wantDW.data, d.grad.data, d.w.data, d.x.data, g)
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, k := range allTiers() {
		tier = k
		got := Full(7, g.n, g.c, g.oh, g.ow)
		DWConvForwardInto(got, d.w, d.x, d.stride, d.pad)
		if diff := bitsDiff(got, want); diff != "" {
			return fmt.Sprintf("tier=%v forward: %s", k, diff)
		}
		gotDX, gotDW := Full(7, d.x.shape...), d.seed.Clone()
		DWConvBackwardInto(gotDX, gotDW, d.grad, d.w, d.x, d.stride, d.pad)
		if diff := bitsDiff(gotDX, wantDX); diff != "" {
			return fmt.Sprintf("tier=%v dx: %s", k, diff)
		}
		if diff := bitsDiff(gotDW, wantDW); diff != "" {
			return fmt.Sprintf("tier=%v dW: %s", k, diff)
		}
	}
	return ""
}

// TestDWConvMatchesScalarOracleBits pins the depthwise kernels — the AVX
// lanes and the row-run loops — to the loops they replaced, bit for bit:
// output, input gradient, and a pre-seeded weight gradient, over
// strides, paddings (including padding that reaches past the kernel, so
// whole taps and whole output positions see only zeros), kernel sizes,
// non-square images, kernels wider than the image, and operands holding
// exact zeros of both signs, NaN and ±Inf.
func TestDWConvMatchesScalarOracleBits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for _, k := range []int{1, 3, 5, 7} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2, k, k + 2} {
				for _, im := range dwOracleImages {
					if ConvOutSize(im.h, k, stride, pad) <= 0 || ConvOutSize(im.w, k, stride, pad) <= 0 {
						continue
					}
					for _, special := range []bool{false, true} {
						d := newDWConvCase(rng, 2, 3, im.h, im.w, k, stride, pad, special)
						if diff := d.check(); diff != "" {
							t.Errorf("k%d/s%d/p%d/%dx%d/special=%v %s", k, stride, pad, im.h, im.w, special, diff)
						}
						checked++
					}
				}
			}
		}
	}
	if checked < 300 {
		t.Fatalf("only %d geometries checked; the matrix lost its coverage", checked)
	}
}

// TestDWConvZeroGradientContributesNothing isolates the skip: with x all
// NaN and every gradient an exact zero, nothing may reach dx or dW, on
// either kernel path.
func TestDWConvZeroGradientContributesNothing(t *testing.T) {
	x := Full(nan32, 1, 2, 6, 6)
	w := Full(posInf, 2, 1, 3, 3)
	grad := New(1, 2, 6, 6)
	for i := range grad.data {
		if i%2 == 1 {
			grad.data[i] = negZero
		}
	}
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, k := range allTiers() {
		tier = k
		dx, dw := Full(1, 1, 2, 6, 6), Full(negZero, 2, 1, 3, 3)
		DWConvBackwardInto(dx, dw, grad, w, x, 1, 1)
		for i, v := range dx.data {
			if math.Float32bits(v) != 0 {
				t.Fatalf("tier=%v dx[%d] = %v, want +0", k, i, v)
			}
		}
		for i, v := range dw.data {
			if math.Float32bits(v) != math.Float32bits(negZero) {
				t.Fatalf("tier=%v dW[%d] = %v, want the -0 it was seeded with", k, i, v)
			}
		}
	}
}

// TestDWConvSumStartsFromPositiveZero: every product is -0, and the
// oracle's sum starts from +0, so every output is +0 — a kernel that
// seeds the sum with the first product instead would return -0.
func TestDWConvSumStartsFromPositiveZero(t *testing.T) {
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, tk := range allTiers() {
		tier = tk
		for _, k := range []int{3, 5} {
			x, w := Full(negZero, 1, 2, 7, 7), Full(1, 2, 1, k, k)
			out := Full(7, 1, 2, 7, 7)
			DWConvForwardInto(out, w, x, 1, k/2)
			for i, v := range out.data {
				if math.Float32bits(v) != 0 {
					t.Fatalf("tier=%v k=%d out[%d] = %v (%#08x), want +0", tk, k, i, v, math.Float32bits(v))
				}
			}
		}
	}
}

// FuzzDWConv is the depthwise kernels' generative oracle: an input names
// a geometry — up to 2 images of 3 channels, images up to 20×20, kernel
// 1, 3, 5 or 7, stride 1–3, padding up to K+2 — and a seed for the
// values, and forward, input gradient and a pre-seeded weight gradient
// must equal the oracle loops' bit for bit (bitsDiff: NaN payloads
// aside) with the AVX lanes on and off. The committed seeds are the
// oracle matrix's images and the models' 3×3 pad-1 geometry, with and
// without special values.
//
//	go test -run '^$' -fuzz '^FuzzDWConv$' -fuzztime 20s ./internal/tensor/
func FuzzDWConv(f *testing.F) {
	for i, im := range dwOracleImages {
		f.Add(uint8(1), uint8(2), uint8(im.h-1), uint8(im.w-1), uint8(1), uint8(0), uint8(1), false, int64(i))
		f.Add(uint8(0), uint8(0), uint8(im.h-1), uint8(im.w-1), uint8(i), uint8(i), uint8(i), i%2 == 0, int64(i))
	}
	f.Add(uint8(1), uint8(2), uint8(15), uint8(15), uint8(1), uint8(0), uint8(1), true, int64(16))
	f.Add(uint8(1), uint8(2), uint8(7), uint8(7), uint8(1), uint8(0), uint8(1), true, int64(8))
	f.Fuzz(func(t *testing.T, n, c, h, w, k, stride, pad uint8, special bool, seed int64) {
		kk := 2*int(k%4) + 1
		hh, ww, s, p := 1+int(h%20), 1+int(w%20), 1+int(stride%3), int(pad)%(kk+3)
		if ConvOutSize(hh, kk, s, p) <= 0 || ConvOutSize(ww, kk, s, p) <= 0 {
			t.Skip("empty output")
		}
		d := newDWConvCase(rand.New(rand.NewSource(seed)), 1+int(n%2), 1+int(c%3), hh, ww, kk, s, p, special)
		if diff := d.check(); diff != "" {
			t.Fatalf("n=%d c=%d %dx%d k%d s%d p%d special=%v seed=%d: %s",
				d.x.shape[0], d.x.shape[1], hh, ww, kk, s, p, special, seed, diff)
		}
	})
}

func TestDWConvShapePanics(t *testing.T) {
	x, w := New(2, 3, 8, 8), New(3, 1, 3, 3)
	out := New(2, 3, 8, 8)
	cases := map[string]func(){
		"non-NCHW input":    func() { DWConvForwardInto(out, w, New(3, 8, 8), 1, 1) },
		"channel mismatch":  func() { DWConvForwardInto(out, New(4, 1, 3, 3), x, 1, 1) },
		"non-square kernel": func() { DWConvForwardInto(out, New(3, 1, 3, 2), x, 1, 1) },
		"zero stride":       func() { DWConvForwardInto(out, w, x, 0, 1) },
		"empty output":      func() { DWConvForwardInto(out, New(3, 1, 9, 9), x, 1, 0) },
		"output shape":      func() { DWConvForwardInto(New(2, 3, 6, 6), w, x, 1, 1) },
		"grad shape":        func() { DWConvBackwardInto(New(2, 3, 8, 8), New(3, 1, 3, 3), New(2, 3, 8, 7), w, x, 1, 1) },
		"dx shape":          func() { DWConvBackwardInto(New(2, 3, 8, 7), New(3, 1, 3, 3), out, w, x, 1, 1) },
		"dW shape":          func() { DWConvBackwardInto(New(2, 3, 8, 8), New(3, 1, 3, 2), out, w, x, 1, 1) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
