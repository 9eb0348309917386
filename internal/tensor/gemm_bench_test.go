package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGemmFloor is the sweep behind packedMinWork and
// packedMinInstance: each shape runs serially on the reference kernels
// ("ref") and on the packed engine ("packed") whichever side of the
// floors it falls, so the two columns say where packing starts to pay.
// The shapes straddle the call floor of 2⁹ multiply-adds in g·m·k·n and
// the instance floor of 2⁷ in m·k·n, and include single-row products
// (which the rule never packs) and sub-panel widths.
//
//	go test -run '^$' -bench GemmFloor -benchtime 100000x -count 5 ./internal/tensor/
func BenchmarkGemmFloor(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range []struct{ g, m, k, n int }{
		{1, 1, 64, 64}, {1, 1, 256, 256}, // one row
		{1, 2, 8, 8}, {1, 4, 4, 8}, {1, 6, 6, 6}, {1, 4, 8, 8}, {1, 8, 4, 8}, // below the call floor
		{1, 2, 16, 16}, {1, 4, 8, 16}, {1, 8, 8, 8}, // at it
		{1, 2, 32, 32}, {1, 3, 16, 16}, {1, 16, 16, 16}, // above it
		{1, 16, 32, 1}, {1, 64, 64, 1}, {1, 6, 512, 6}, {1, 3, 16, 2048}, // edge tiles only
		{64, 2, 2, 2}, {16, 2, 4, 4}, {64, 2, 4, 4}, {16, 4, 4, 4}, // below the instance floor
		{4, 2, 8, 8}, {4, 4, 4, 8}, {8, 4, 8, 8}, {64, 4, 8, 8}, // at it and above
	} {
		a, bm, out := Rand(rng, -1, 1, s.g, s.m, s.k), Rand(rng, -1, 1, s.g, s.k, s.n), New(s.g, s.m, s.n)
		o := matMulOperands("BenchmarkGemmFloor", layoutAB, 3, out, a, bm)
		name := fmt.Sprintf("g%d_%dx%dx%d_macs%d", s.g, s.m, s.k, s.n, s.g*s.m*s.k*s.n)
		b.Run(name+"/ref", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.refRows(0, o.g*o.m)
			}
		})
		b.Run(name+"/packed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmPacked(nil, &o)
			}
		})
	}
}
