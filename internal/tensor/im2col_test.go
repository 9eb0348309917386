package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// convNaive computes a direct convolution used as a reference against the
// im2col + matmul path.
func convNaive(x, w *Tensor, stride, pad int) *Tensor {
	n, c, h, wd := x.Shape()[0], x.Shape()[1], x.Shape()[2], x.Shape()[3]
	cout, _, kh, kw := w.Shape()[0], w.Shape()[1], w.Shape()[2], w.Shape()[3]
	oh := ConvOutSize(h, kh, stride, pad)
	ow := ConvOutSize(wd, kw, stride, pad)
	out := New(n, cout, oh, ow)
	for ni := 0; ni < n; ni++ {
		for co := 0; co < cout; co++ {
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					var s float32
					for ci := 0; ci < c; ci++ {
						for ki := 0; ki < kh; ki++ {
							for kj := 0; kj < kw; kj++ {
								ih, iw := oi*stride-pad+ki, oj*stride-pad+kj
								if ih < 0 || ih >= h || iw < 0 || iw >= wd {
									continue
								}
								s += x.At(ni, ci, ih, iw) * w.At(co, ci, ki, kj)
							}
						}
					}
					out.Set(s, ni, co, oi, oj)
				}
			}
		}
	}
	return out
}

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{32, 3, 1, 1, 32},
		{32, 3, 2, 1, 16},
		{224, 7, 2, 3, 112},
		{8, 2, 2, 0, 4},
		{5, 3, 1, 0, 3},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

// TestTapRun checks the run against its definition, position by position.
func TestTapRun(t *testing.T) {
	for _, stride := range []int{1, 2, 3} {
		for size := 1; size <= 6; size++ {
			for n := 0; n <= 7; n++ {
				for i0 := -9; i0 <= 9; i0++ {
					lo, hi := tapRun(i0, stride, size, n)
					if lo < 0 || lo > hi || hi > n {
						t.Fatalf("tapRun(%d,%d,%d,%d) = [%d,%d) outside [0,%d)", i0, stride, size, n, lo, hi, n)
					}
					for p := 0; p < n; p++ {
						in := i0+p*stride >= 0 && i0+p*stride < size
						if in != (p >= lo && p < hi) {
							t.Fatalf("tapRun(%d,%d,%d,%d) = [%d,%d) wrong at %d", i0, stride, size, n, lo, hi, p)
						}
					}
				}
			}
		}
	}
}

func TestIm2ColMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	configs := []struct{ n, c, h, w, cout, k, stride, pad int }{
		{1, 1, 4, 4, 1, 3, 1, 1},
		{2, 3, 8, 8, 4, 3, 1, 1},
		{1, 2, 7, 7, 3, 3, 2, 1},
		{2, 4, 6, 6, 2, 1, 1, 0},
		{1, 3, 9, 9, 2, 5, 2, 2},
	}
	for _, cfg := range configs {
		x := Rand(rng, -1, 1, cfg.n, cfg.c, cfg.h, cfg.w)
		w := Rand(rng, -1, 1, cfg.cout, cfg.c, cfg.k, cfg.k)
		oh := ConvOutSize(cfg.h, cfg.k, cfg.stride, cfg.pad)
		ow := ConvOutSize(cfg.w, cfg.k, cfg.stride, cfg.pad)

		cols := New(cfg.c*cfg.k*cfg.k, cfg.n*oh*ow)
		Serial{}.Im2ColInto(cols, x, cfg.k, cfg.k, cfg.stride, cfg.pad)
		wm := w.Reshape(cfg.cout, cfg.c*cfg.k*cfg.k)
		flat := New(cfg.cout, cfg.n*oh*ow)
		Serial{}.MatMulInto(flat, wm, cols)

		// Rearrange [cout, n*oh*ow] to NCHW.
		got := New(cfg.n, cfg.cout, oh, ow)
		for co := 0; co < cfg.cout; co++ {
			for ni := 0; ni < cfg.n; ni++ {
				for oi := 0; oi < oh; oi++ {
					for oj := 0; oj < ow; oj++ {
						got.Set(flat.At(co, (ni*oh+oi)*ow+oj), ni, co, oi, oj)
					}
				}
			}
		}
		want := convNaive(x, w, cfg.stride, cfg.pad)
		if !got.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("im2col conv mismatch for config %+v", cfg)
		}
	}
}

// TestCol2ImIsAdjointOfIm2Col checks <im2col(x), y> == <x, col2im(y)>,
// the defining property of an adjoint pair, which is exactly what the
// convolution backward pass relies on.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		n, c := 1+rng.Intn(2), 1+rng.Intn(3)
		h := 4 + rng.Intn(5)
		w := 4 + rng.Intn(5)
		k := 1 + 2*rng.Intn(2) // 1 or 3
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		x := Rand(rng, -1, 1, n, c, h, w)
		cols := New(c*k*k, n*ConvOutSize(h, k, stride, pad)*ConvOutSize(w, k, stride, pad))
		Serial{}.Im2ColInto(cols, x, k, k, stride, pad)
		y := Rand(rng, -1, 1, cols.Shape()...)
		back := New(n, c, h, w)
		Serial{}.Col2ImInto(back, y, k, k, stride, pad)

		var lhs, rhs float64
		for i, v := range cols.Data() {
			lhs += float64(v) * float64(y.Data()[i])
		}
		for i, v := range x.Data() {
			rhs += float64(v) * float64(back.Data()[i])
		}
		if diff := lhs - rhs; diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("adjoint property violated: %v vs %v (n=%d c=%d h=%d w=%d k=%d s=%d p=%d)",
				lhs, rhs, n, c, h, w, k, stride, pad)
		}
	}
}

// TestIm2ColShapes: the output must be exactly [C*KH*KW, N*OH*OW].
func TestIm2ColShapes(t *testing.T) {
	x := New(2, 3, 8, 8)
	oh := ConvOutSize(8, 3, 2, 1)
	Serial{}.Im2ColInto(New(3*3*3, 2*oh*oh), x, 3, 3, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Im2ColInto accepted an output one column short")
		}
	}()
	Serial{}.Im2ColInto(New(3*3*3, 2*oh*oh-1), x, 3, 3, 2, 1)
}

func TestIm2ColPanicsOnNonNCHW(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Serial{}.Im2ColInto(New(9, 9), New(3, 3), 3, 3, 1, 1)
}

func TestCol2ImPanicsOnWrongShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Serial{}.Col2ImInto(New(1, 1, 4, 4), New(5, 5), 3, 3, 1, 1)
}

// TestFusedPackRowRunsMatchScalarOracle pins the run-based packers — the
// forward panel pack, its transposed twin, and the materializing
// im2colRows — to convGeom.at, the per-element definition they replaced,
// on raw bits. The geometries put a panel exactly on one output row
// (ow 8 and 16, the benchmark's widths, where the old interior fast path
// was never taken with padding), across two rows (ow 5 and 17), across
// two images, and into a partial last panel; pad 2 on a 3-wide image
// clips a tap run on both ends; stride 2 takes the strided gather.
// Destinations start as garbage, so a run that is not written or not
// zeroed shows.
func TestFusedPackRowRunsMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type geo struct{ n, c, h, w, k, stride, pad int }
	var geos []geo
	for _, pad := range []int{0, 1, 2} {
		for _, ow := range []int{5, 8, 16, 17} {
			w := ow + 2 - 2*pad // k = 3, stride 1
			geos = append(geos, geo{2, 3, w + 1, w, 3, 1, pad})
		}
		geos = append(geos, geo{2, 2, 9, 11, 3, 2, pad}, geo{3, 2, 6, 7, 5, 1, pad})
	}
	geos = append(geos, geo{2, 10, 8, 8, 1, 1, 0}) // 1×1: every run is the whole row
	for _, ge := range geos {
		x := New(ge.n, ge.c, ge.h, ge.w)
		fillAdversarial(rng, x, ge.pad)
		g := convGeom{n: ge.n, c: ge.c, h: ge.h, w: ge.w,
			oh: ConvOutSize(ge.h, ge.k, ge.stride, ge.pad), ow: ConvOutSize(ge.w, ge.k, ge.stride, ge.pad),
			kh: ge.k, kw: ge.k, stride: ge.stride, pad: ge.pad}
		K, S := g.colRows(), g.colCols()
		garbage := func(n int) []float32 {
			d := make([]float32, n)
			for i := range d {
				d[i] = 7
			}
			return d
		}
		same := func(what string, i int, got, want float32) {
			t.Helper()
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%+v %s[%d] = %v (%#08x), want %v (%#08x)", ge, what, i, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}

		bp := garbage(packedBLen(K, S))
		im2colPackPanels(bp, x.data, g, 0, panelsOf(S))
		for i, got := range bp {
			pan, p, c := i/(K*nrTile), i/nrTile%K, i%nrTile
			want := float32(0) // the partial last panel's tail
			if j := pan*nrTile + c; j < S {
				want = g.at(x.data, p, j)
			}
			same("panel", i, got, want)
		}

		bpT := garbage(packedBLen(S, K))
		im2colPackPanelsT(bpT, x.data, g, 0, panelsOf(K))
		for i, got := range bpT {
			pan, j, c := i/(S*nrTile), i/nrTile%S, i%nrTile
			want := float32(0)
			if p := pan*nrTile + c; p < K {
				want = g.at(x.data, p, j)
			}
			same("transposed panel", i, got, want)
		}

		cols := garbage(K * S)
		im2colRows(cols, x.data, g.n, g.c, g.h, g.w, g.kh, g.kw, g.oh, g.ow, g.stride, g.pad, 0, K)
		for i, got := range cols {
			same("column matrix", i, got, g.at(x.data, i/S, i%S))
		}

		// col2im: the fold must add each pixel's terms in the order of the
		// per-element loop it replaced.
		cd := Rand(rng, -1, 1, K, S).data
		want := make([]float32, len(x.data))
		for ci := 0; ci < g.c; ci++ {
			for ki := 0; ki < g.kh; ki++ {
				for kj := 0; kj < g.kw; kj++ {
					for j := 0; j < S; j++ {
						ni, oi, oj := j/(g.oh*g.ow), j/g.ow%g.oh, j%g.ow
						ih, iw := oi*g.stride-g.pad+ki, oj*g.stride-g.pad+kj
						if ih >= 0 && ih < g.h && iw >= 0 && iw < g.w {
							want[((ni*g.c+ci)*g.h+ih)*g.w+iw] += cd[((ci*g.kh+ki)*g.kw+kj)*S+j]
						}
					}
				}
			}
		}
		got := garbage(len(x.data))
		col2imChannels(got, cd, g.n, g.c, g.h, g.w, g.kh, g.kw, g.oh, g.ow, g.stride, g.pad, 0, g.c)
		for i := range got {
			same("col2im", i, got[i], want[i])
		}
	}
}
