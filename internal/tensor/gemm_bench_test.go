package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGemmInPlaceB is the sweep behind inPlaceBMax: each layout-AB
// and layout-TA shape runs serially with B packed into panels ("packed",
// the pack included) and read in place ("inplace"), A in place both
// ways, so the two columns say up to which k·n reading B in place pays.
// Rows of B at a power-of-two stride n share cache sets, so the in-place
// side loses once k·n outgrows what L1 keeps.
//
//	go test -run '^$' -bench GemmInPlaceB -benchtime 0.2s -count 3 ./internal/tensor/
func BenchmarkGemmInPlaceB(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	for _, layout := range []gemmLayout{layoutAB, layoutTA} {
		for _, m := range []int{32, 512} {
			for _, n := range []int{16, 64, 256} {
				for _, k := range []int{16, 32, 64, 256, 512} {
					ar, ac := m, k
					if layout == layoutTA {
						ar, ac = k, m
					}
					a, bm, out := Rand(rng, -1, 1, ar, ac), Rand(rng, -1, 1, k, n), New(m, n)
					o := matMulOperands("BenchmarkGemmInPlaceB", layout, 2, out, a, bm)
					bp := make([]float32, packedBLen(k, n))
					name := fmt.Sprintf("%s_%dx%dx%d_kn%d", [...]string{layoutAB: "AB", layoutTA: "TA"}[layout], m, k, n, k*n)
					b.Run(name+"/packed", func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							o.packPanels(bp, 0, panelsOf(n))
							o.tiles(bp, false, 0, tilesOf(m))
						}
					})
					b.Run(name+"/inplace", func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							o.tiles(bm.data, true, 0, tilesOf(m))
						}
					})
				}
			}
		}
	}
}

// BenchmarkGemmTiers times the GEMMs `go run ./benchmark` spends its
// kernel time in, serially, on the microkernel of every tier the host
// has: xfmr_inproc's Linear GEMMs over 16 × 32 token rows (512×64×64,
// 512×64×256 and 512×256×64), its attention scores (64 instances of
// 32×16×32), and conv_inproc's 3×3 conv over 16 images of 16×16 on 16
// channels, forward (taps read in place) and weight gradient (packed).
// The throughput column is 2·macs·4 bytes per call.
//
//	go test -run '^$' -bench GemmTiers -benchtime 0.2s -count 3 ./internal/tensor/
func BenchmarkGemmTiers(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	type call struct {
		name string
		macs int
		o    gemmOperands
	}
	var calls []call
	for _, s := range []struct{ m, k, n int }{{512, 64, 64}, {512, 64, 256}, {512, 256, 64}} {
		a, bm, out := Rand(rng, -1, 1, s.m, s.k), Rand(rng, -1, 1, s.k, s.n), New(s.m, s.n)
		calls = append(calls, call{fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), s.m * s.k * s.n,
			matMulOperands("BenchmarkGemmTiers", layoutAB, 2, out, a, bm)})
	}
	q, k, scores := Rand(rng, -1, 1, 64, 32, 16), Rand(rng, -1, 1, 64, 32, 16), New(64, 32, 32)
	calls = append(calls, call{"64x32x16x32", 64 * 32 * 16 * 32,
		matMulOperands("BenchmarkGemmTiers", layoutTB, 3, scores, q, k)})
	const n, c, hw = 16, 16, 16
	x := Rand(rng, -1, 1, n, c, hw, hw)
	w, grad := Rand(rng, -1, 1, c, c*9), Rand(rng, -1, 1, c, n*hw*hw)
	out, dW := New(c, n*hw*hw), New(c, c*9)
	calls = append(calls,
		call{"conv3x3_n16/fwd", c * c * 9 * n * hw * hw,
			convOperands("BenchmarkGemmTiers", layoutConv, out, w, x, 3, 3, 1, 1)},
		call{"conv3x3_n16/dW", c * c * 9 * n * hw * hw,
			convOperands("BenchmarkGemmTiers", layoutConvT, dW, grad, x, 3, 3, 1, 1)})
	defer func(prev kernelTier) { tier = prev }(tier)
	for _, k := range hostTiers(b) {
		for _, cl := range calls {
			b.Run(k.String()+"/"+cl.name, func(b *testing.B) {
				tier = k
				b.SetBytes(int64(2 * cl.macs * 4))
				for i := 0; i < b.N; i++ {
					gemm(nil, cl.o)
				}
			})
		}
	}
}
