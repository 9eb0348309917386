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
