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
// block, and past one; rows past one AVX-512 block (17, 31, 33); and
// heights that leave every remainder of its tiles of four rows.
var dwOracleImages = []struct{ h, w int }{{8, 8}, {16, 16}, {5, 9}, {9, 4}, {3, 5}, {1, 7}, {2, 2}, {6, 17}, {7, 31}, {4, 33}}

// dwOracleChannels are the channel counts the oracle matrix cycles
// through: a weight-gradient call covers a group of up to 16 channels
// on tierAVX512 and dwGroupAVX (3) on tierAVX, and these leave every
// remainder after whole groups, none at all included, on both tiers.
var dwOracleChannels = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}

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

// TestDWConvMatchesScalarOracleBits pins the depthwise kernels — the
// vector lanes of every tier and the row-run loops — to the loops they
// replaced, bit for bit: output, input gradient, and a pre-seeded weight
// gradient, over strides, paddings (including padding that reaches past
// the kernel, so whole taps and whole output positions see only zeros),
// kernel sizes, non-square images, kernels wider than the image, channel
// counts that leave every remainder of the weight gradient's channel
// groups, and operands holding exact zeros of both signs, NaN and ±Inf.
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
						c := dwOracleChannels[checked%len(dwOracleChannels)]
						d := newDWConvCase(rng, 2, c, im.h, im.w, k, stride, pad, special)
						if diff := d.check(); diff != "" {
							t.Errorf("k%d/s%d/p%d/%dx%d/c%d/special=%v %s", k, stride, pad, im.h, im.w, c, special, diff)
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
// any tier.
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

// TestDWConvWeightGradKeepsSeedWhereNoTermLands: a weight-gradient tap
// that no pixel inside the image reaches adds no term at all, so a sum
// seeded with -0 stays -0 — not -0 + +0, which is +0. Images one row or
// one column high, padded by 1, leave such taps beside taps that do add
// (with a 3×3 kernel, kernel rows 0 and 2 of a one-row image); the 2×2
// and pad-2 images are reached everywhere and check the added bits. The
// gradients are nonzero and x holds NaN and ±Inf, on five channels (a
// ragged group of 16 under AVX-512, a whole group of three and a ragged
// one under AVX) of two images.
func TestDWConvWeightGradKeepsSeedWhereNoTermLands(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	defer func(prev kernelTier) { tier = prev }(tier)
	unreached := 0
	for _, c := range []struct{ h, w, pad int }{{1, 1, 1}, {1, 3, 1}, {3, 1, 1}, {1, 9, 1}, {2, 2, 1}, {1, 1, 2}, {2, 2, 2}} {
		x := Rand(rng, -2, 2, 2, 5, c.h, c.w)
		for i := range x.data {
			x.data[i] = [...]float32{nan32, posInf, negInf, x.data[i]}[i%4]
		}
		w := Rand(rng, -1, 1, 5, 1, 3, 3)
		g := checkDWConv("test", w, x, 1, c.pad)
		grad := Rand(rng, 0.5, 1, g.n, g.c, g.oh, g.ow)
		want := Full(negZero, w.shape...)
		dwConvBackwardOracle(New(x.shape...).data, want.data, grad.data, w.data, x.data, g)
		for _, k := range allTiers() {
			tier = k
			dw := Full(negZero, w.shape...)
			DWConvBackwardInto(New(x.shape...), dw, grad, w, x, 1, c.pad)
			if diff := bitsDiff(dw, want); diff != "" {
				t.Fatalf("tier=%v %dx%d pad %d: %s", k, c.h, c.w, c.pad, diff)
			}
			for i, v := range dw.data {
				ki, kj := i%9/3, i%3
				if dwTapReached(ki, g.pad, g.h, g.oh) && dwTapReached(kj, g.pad, g.w, g.ow) {
					continue
				}
				unreached++
				if math.Float32bits(v) != math.Float32bits(negZero) {
					t.Fatalf("tier=%v %dx%d pad %d: tap (%d,%d) of channel %d = %v (%#08x), no pixel reaches it, want the -0 it was seeded with",
						k, c.h, c.w, c.pad, ki, kj, i/9, v, math.Float32bits(v))
				}
			}
		}
	}
	if unreached == 0 {
		t.Fatal("every tap is reached in every case; the test shows nothing")
	}
}

// dwTapReached reports whether kernel offset k lands inside an image
// dimension of n pixels at some of its on stride-1 output positions.
func dwTapReached(k, pad, n, on int) bool {
	for o := range on {
		if i := o - pad + k; i >= 0 && i < n {
			return true
		}
	}
	return false
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
// a geometry — up to 2 images of 1–17 channels, images up to 20 high and
// 40 wide, kernel 1, 3, 5 or 7, stride 1–3, padding up to K+2 — and a
// seed for the values, and forward, input gradient and a pre-seeded
// weight gradient must equal the oracle loops' bit for bit (bitsDiff:
// NaN payloads aside) on every tier. The committed seeds are the oracle
// matrix's images on 3 channels and on 1–10, and the models' 3×3 pad-1
// planes on two images, with and without special values: 16×16 on 16
// channels (one whole AVX-512 weight-gradient group, as conv_inproc's
// are), 8×8 on the cluster workloads' 6, and block 0's 16×16 on 3.
//
//	go test -run '^$' -fuzz '^FuzzDWConv$' -fuzztime 20s ./internal/tensor/
func FuzzDWConv(f *testing.F) {
	for i, im := range dwOracleImages {
		f.Add(uint8(1), uint8(2), uint8(im.h-1), uint8(im.w-1), uint8(1), uint8(0), uint8(1), false, int64(i))
		f.Add(uint8(0), uint8(i), uint8(im.h-1), uint8(im.w-1), uint8(i), uint8(i), uint8(i), i%2 == 0, int64(i))
	}
	for _, m := range []struct{ c, hw uint8 }{{16, 16}, {6, 8}, {3, 16}} {
		for _, special := range []bool{false, true} {
			f.Add(uint8(1), m.c-1, m.hw-1, m.hw-1, uint8(1), uint8(0), uint8(1), special, int64(m.c)*int64(m.hw))
		}
	}
	f.Fuzz(func(t *testing.T, n, c, h, w, k, stride, pad uint8, special bool, seed int64) {
		kk := 2*int(k%4) + 1
		hh, ww, s, p := 1+int(h%20), 1+int(w%40), 1+int(stride%3), int(pad)%(kk+3)
		if ConvOutSize(hh, kk, s, p) <= 0 || ConvOutSize(ww, kk, s, p) <= 0 {
			t.Skip("empty output")
		}
		d := newDWConvCase(rand.New(rand.NewSource(seed)), 1+int(n%2), 1+int(c%17), hh, ww, kk, s, p, special)
		if diff := d.check(); diff != "" {
			t.Fatalf("n=%d c=%d %dx%d k%d s%d p%d special=%v seed=%d: %s",
				d.x.shape[0], d.x.shape[1], hh, ww, kk, s, p, special, seed, diff)
		}
	})
}

// TestDWConvCallsDoNotAllocate: a warm depthwise call allocates nothing
// on any tier — the lane masks ride the stack and the weight gradient's
// channels-last staging comes from packArenas — at conv_inproc's
// [16,16,16,16] and block-0 [8,3,16,16] and the cluster workloads'
// [16,6,8,8].
func TestDWConvCallsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, k := range hostTiers(t) {
		tier = k
		for _, s := range []struct{ n, c, hw int }{{16, 16, 16}, {8, 3, 16}, {16, 6, 8}} {
			x, w := Rand(rng, -1, 1, s.n, s.c, s.hw, s.hw), Rand(rng, -1, 1, s.c, 1, 3, 3)
			out, grad := New(x.shape...), Rand(rng, -1, 1, x.shape...)
			dx, dw := New(x.shape...), New(w.shape...)
			calls := map[string]func(){
				"DWConvForwardInto":  func() { DWConvForwardInto(out, w, x, 1, 1) },
				"DWConvBackwardInto": func() { DWConvBackwardInto(dx, dw, grad, w, x, 1, 1) },
			}
			for name, call := range calls {
				call() // size the arena
				if got := testing.AllocsPerRun(10, call); got != 0 {
					t.Errorf("tier=%v %v %s allocates %v times a call once warm, want 0", k, x.shape, name, got)
				}
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

// BenchmarkDWConvTiers times the depthwise 3×3 pad-1 convolution of the
// depthwise-separable students on every kernel tier the host has, at
// conv_inproc's [16,16,16,16] and block-0 [8,3,16,16] and the cluster
// workloads' [16,6,8,8]: forward, backward, and on the vector tiers the
// backward's two kernels alone, the input gradient (dx) and the weight
// gradient (dW).
//
//	go test -run '^$' -bench DWConvTiers -benchtime 0.2s -count 3 ./internal/tensor/
func BenchmarkDWConvTiers(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, k := range hostTiers(b) {
		for _, s := range []struct{ n, c, hw int }{{16, 16, 16}, {8, 3, 16}, {16, 6, 8}} {
			x, w := Rand(rng, -1, 1, s.n, s.c, s.hw, s.hw), Rand(rng, -1, 1, s.c, 1, 3, 3)
			out, grad := New(x.shape...), Rand(rng, -1, 1, x.shape...)
			dx, dw := New(x.shape...), New(w.shape...)
			g := checkDWConv("BenchmarkDWConvTiers", w, x, 1, 1)
			name := fmt.Sprintf("%v/%dx%dx%dx%d", k, s.n, s.c, s.hw, s.hw)
			b.Run(name+"/fwd", func(b *testing.B) {
				tier = k
				for i := 0; i < b.N; i++ {
					DWConvForwardInto(out, w, x, 1, 1)
				}
			})
			b.Run(name+"/bwd", func(b *testing.B) {
				tier = k
				for i := 0; i < b.N; i++ {
					DWConvBackwardInto(dx, dw, grad, w, x, 1, 1)
				}
			})
			if k == tierGeneric {
				continue // one loop computes both gradients
			}
			b.Run(name+"/dx", func(b *testing.B) {
				tier = k
				for i := 0; i < b.N; i++ {
					dwInputGradLanes(dx.data, grad.data, w.data, g)
				}
			})
			b.Run(name+"/dW", func(b *testing.B) {
				tier = k
				for i := 0; i < b.N; i++ {
					dwWeightLanes(dw.data, grad.data, x.data, g)
				}
			})
		}
	}
}
