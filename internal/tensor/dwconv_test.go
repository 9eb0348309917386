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

// TestDWConvMatchesScalarOracleBits pins the row-run depthwise kernels to
// the loops they replaced, bit for bit: output, input gradient, and a
// pre-seeded weight gradient, over strides, paddings (including padding
// that reaches past the kernel, so whole taps and whole output positions
// see only zeros), kernel sizes with and without the unrolled 3×3
// interior, non-square images, kernels wider than the image, and
// gradients holding exact zeros of both signs, NaN and ±Inf.
func TestDWConvMatchesScalarOracleBits(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	images := []struct{ h, w int }{{8, 8}, {16, 16}, {5, 9}, {9, 4}, {3, 5}, {1, 7}, {2, 2}}
	checked := 0
	for _, k := range []int{1, 3, 5, 7} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2, k, k + 2} {
				for _, im := range images {
					if ConvOutSize(im.h, k, stride, pad) <= 0 || ConvOutSize(im.w, k, stride, pad) <= 0 {
						continue
					}
					for _, special := range []bool{false, true} {
						name := fmt.Sprintf("k%d/s%d/p%d/%dx%d/special=%v", k, stride, pad, im.h, im.w, special)
						x := Rand(rng, -2, 2, 2, 3, im.h, im.w)
						w := Rand(rng, -1, 1, 3, 1, k, k)
						g := checkDWConv("test", w, x, stride, pad)
						grad := Rand(rng, -1, 1, g.n, g.c, g.oh, g.ow)
						seed := Rand(rng, -1, 1, 3, 1, k, k)
						sprinkle(rng, grad, 4, 0, negZero)
						if special {
							sprinkle(rng, x, 6, 0, negZero, posInf, nan32, negInf)
							sprinkle(rng, w, 5, 0, negZero, negInf)
							sprinkle(rng, grad, 6, nan32, posInf, negInf)
							sprinkle(rng, seed, 4, negZero, nan32)
						}

						want := New(g.n, g.c, g.oh, g.ow)
						dwConvForwardOracle(want.data, w.data, x.data, g)
						got := Full(7, g.n, g.c, g.oh, g.ow) // recycled scratch: must be overwritten
						DWConvForwardInto(got, w, x, stride, pad)
						if diff := bitsDiff(got, want); diff != "" {
							t.Errorf("%s forward: %s", name, diff)
						}

						wantDX, wantDW := New(x.shape...), seed.Clone()
						dwConvBackwardOracle(wantDX.data, wantDW.data, grad.data, w.data, x.data, g)
						gotDX, gotDW := Full(7, x.shape...), seed.Clone()
						DWConvBackwardInto(gotDX, gotDW, grad, w, x, stride, pad)
						if diff := bitsDiff(gotDX, wantDX); diff != "" {
							t.Errorf("%s dx: %s", name, diff)
						}
						if diff := bitsDiff(gotDW, wantDW); diff != "" {
							t.Errorf("%s dW: %s", name, diff)
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
// NaN and every gradient an exact zero, nothing may reach dx or dW.
func TestDWConvZeroGradientContributesNothing(t *testing.T) {
	x := Full(nan32, 1, 2, 6, 6)
	w := Full(posInf, 2, 1, 3, 3)
	grad := New(1, 2, 6, 6)
	for i := range grad.data {
		if i%2 == 1 {
			grad.data[i] = negZero
		}
	}
	dx, dw := Full(1, 1, 2, 6, 6), Full(negZero, 2, 1, 3, 3)
	DWConvBackwardInto(dx, dw, grad, w, x, 1, 1)
	for i, v := range dx.data {
		if math.Float32bits(v) != 0 {
			t.Fatalf("dx[%d] = %v, want +0", i, v)
		}
	}
	for i, v := range dw.data {
		if math.Float32bits(v) != math.Float32bits(negZero) {
			t.Fatalf("dW[%d] = %v, want the -0 it was seeded with", i, v)
		}
	}
}

// TestDWConvSumStartsFromPositiveZero: every product is -0, and the
// oracle's sum starts from +0, so every output is +0 — a kernel that
// seeds the sum with the first product instead would return -0.
func TestDWConvSumStartsFromPositiveZero(t *testing.T) {
	for _, k := range []int{3, 5} {
		x, w := Full(negZero, 1, 2, 7, 7), Full(1, 2, 1, k, k)
		out := Full(7, 1, 2, 7, 7)
		DWConvForwardInto(out, w, x, 1, k/2)
		for i, v := range out.data {
			if math.Float32bits(v) != 0 {
				t.Fatalf("k=%d out[%d] = %v (%#08x), want +0", k, i, v, math.Float32bits(v))
			}
		}
	}
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
