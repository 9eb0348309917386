package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The oracle of the float32 transcendental kernels: a sweep of the whole
// float32 range against float64 libm with the bounds the kernels' doc
// comments state, the special values, and a table of exact result bits.

// sweepStride spaces the sweep: every 509th float32 bit pattern from +0 to
// +Inf, 4.2 million magnitudes, each taken with both signs. (Taken over
// every float32 once, while the kernels were written, the worst tanh
// error was 1.34 ULP and the worst exp error 0.990 ULP; exp never
// stepped down between neighbouring floats, tanh did by one ULP at 7
// inputs in [0.90, 0.92], which a stride does not see.)
const sweepStride = 509

const infBits = 0x7f800000

// mix folds one result's bits into a running FNV-1a style digest. Each
// sweep pins the digest of every result it saw: the bounds catch a kernel
// that is wrong, the digest one that is merely different — a coefficient
// off in a late digit, a formula boundary moved, a multiply-add fused on
// some port.
func mix(h uint64, v float32) uint64 {
	return (h ^ uint64(math.Float32bits(v))) * 1099511628211
}

// ulps is |got − want| in units of the float32 spacing at want.
func ulps(got float32, want float64) float64 {
	spacing := 0x1p-149
	if a := math.Abs(want); a >= 0x1p-126 {
		_, e := math.Frexp(a)
		spacing = math.Ldexp(1, e-24)
	}
	return math.Abs(float64(got)-want) / spacing
}

// sweep calls visit with consecutive chunks of the sweep's magnitudes in
// ascending order.
func sweep(visit func(xs []float32)) {
	xs := make([]float32, 0, 4096)
	for b := uint32(0); b < infBits; b += sweepStride {
		xs = append(xs, math.Float32frombits(b))
		if len(xs) == cap(xs) {
			visit(xs)
			xs = xs[:0]
		}
	}
	visit(xs)
}

func negated(xs []float32) []float32 {
	out := make([]float32, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

// TestTanhIntoSweep enforces TanhInto's stated bounds — 1.5 ULP and 1e-7
// absolute against math.Tanh — and its shape: odd-symmetric bit for bit,
// never above 1 in magnitude, non-decreasing along the sweep.
func TestTanhIntoSweep(t *testing.T) {
	var worstULP, worstAbs float64
	var atULP, atAbs float32
	prev, digest := float32(0), uint64(0)
	sweep(func(xs []float32) {
		pos := make([]float32, len(xs))
		TanhInto(pos, xs)
		neg := negated(xs)
		TanhInto(neg, neg) // in place
		for i, x := range xs {
			got, want := pos[i], math.Tanh(float64(x))
			if math.Float32bits(neg[i]) != math.Float32bits(-got) {
				t.Fatalf("tanh(%g) = %g but tanh(%g) = %g: not odd bit for bit", x, got, -x, neg[i])
			}
			if got > 1 || got < prev {
				t.Fatalf("tanh(%g) = %g after %g: above 1, or decreasing along the sweep", x, got, prev)
			}
			prev, digest = got, mix(digest, got)
			if u := ulps(got, want); u > worstULP {
				worstULP, atULP = u, x
			}
			if d := math.Abs(float64(got) - want); d > worstAbs {
				worstAbs, atAbs = d, x
			}
		}
	})
	t.Logf("worst %.3f ULP at %g, worst absolute %.3g at %g", worstULP, atULP, worstAbs, atAbs)
	if worstULP > 1.5 || worstAbs > 1e-7 {
		t.Errorf("TanhInto is %.3f ULP off at %g and %.3g off at %g; it states 1.5 ULP and 1e-7",
			worstULP, atULP, worstAbs, atAbs)
	}
	if want := uint64(0xd6727543db6a1125); digest != want {
		t.Errorf("digest of the sweep's results %#x, pinned %#x: some result changed bits", digest, want)
	}
}

// TestExpIntoSweep enforces ExpInto's stated bounds — 1 ULP against
// math.Exp wherever the exponential is a normal float32, 6e-8 absolute
// for x ≤ 0 — and its edges: an exponential below the smallest normal is
// +0, not a denormal; one that rounds past the largest float32 is +Inf;
// increasing inputs never decrease the result.
func TestExpIntoSweep(t *testing.T) {
	var worstULP, worstAbs float64
	var atULP, atAbs float32
	check := func(xs, got []float32) {
		for i, x := range xs {
			u, d, edge := expError(x, got[i])
			if edge != "" {
				t.Fatal(edge)
			}
			if u > worstULP {
				worstULP, atULP = u, x
			}
			if d > worstAbs {
				worstAbs, atAbs = d, x
			}
		}
	}
	up, down, digest := float32(1), float32(1), uint64(0)
	sweep(func(xs []float32) {
		pos := make([]float32, len(xs))
		ExpInto(pos, xs)
		check(xs, pos)
		neg := negated(xs)
		got := append([]float32(nil), neg...)
		ExpInto(got, got) // in place
		check(neg, got)
		for i, x := range xs {
			if pos[i] < up || got[i] > down {
				t.Fatalf("exp(±%g) = %g, %g after %g, %g: not monotone along the sweep", x, pos[i], got[i], up, down)
			}
			up, down, digest = pos[i], got[i], mix(mix(digest, pos[i]), got[i])
		}
	})
	t.Logf("worst %.3f ULP at %g, worst absolute for x ≤ 0 %.3g at %g", worstULP, atULP, worstAbs, atAbs)
	if worstULP > 1 || worstAbs > 6e-8 {
		t.Errorf("ExpInto is %.3f ULP off at %g and %.3g off at %g; it states 1 ULP and 6e-8",
			worstULP, atULP, worstAbs, atAbs)
	}
	if want := uint64(0x0135fadea2de7412); digest != want {
		t.Errorf("digest of the sweep's results %#x, pinned %#x: some result changed bits", digest, want)
	}
}

// expError measures one ExpInto result against math.Exp: its error in
// ULP, and its absolute error where x ≤ 0 (else 0). Where the
// exponential is below the smallest normal float32 the result must be
// +0, and where it rounds past the largest float32 +Inf; a result that
// is not is described in edge.
func expError(x, got float32) (ulp, abs float64, edge string) {
	want := math.Exp(float64(x))
	switch {
	case want < 0x1p-126:
		if math.Float32bits(got) != 0 {
			edge = fmt.Sprintf("exp(%g) = %g (%#08x), want +0: e^x is below the smallest normal", x, got, math.Float32bits(got))
		}
	case math.IsInf(float64(float32(want)), 1):
		if !math.IsInf(float64(got), 1) {
			edge = fmt.Sprintf("exp(%g) = %g, want +Inf", x, got)
		}
	default:
		ulp = ulps(got, want)
		if x <= 0 {
			abs = math.Abs(float64(got) - want)
		}
	}
	return ulp, abs, edge
}

// special is one exact expectation: kernel(in) has exactly want's bits
// (any NaN for a NaN).
type special struct {
	name     string
	in, want float32
}

// checkSpecials runs the rows once side by side, then again at every
// lane position of a vector: the vector kernels take whole groups of
// eight, so a table shorter than that reaches them only this way. Shift
// l puts row (i+j+l) mod len(rows) at lane j of group i, so over the
// eight shifts each row sits at each lane, next to other rows.
func checkSpecials(t *testing.T, kernel func(dst, src []float32), rows []special) {
	t.Helper()
	run := func(label string, at func(k int) special, n int) {
		t.Helper()
		in, got := make([]float32, n), make([]float32, n)
		for k := range in {
			in[k] = at(k).in
		}
		kernel(got, in)
		for k, v := range got {
			if r := at(k); !sameResult(v, r.want) {
				t.Errorf("%s%s: f(%g) = %g (%#08x), want %g (%#08x)", r.name, label, r.in, v, math.Float32bits(v), r.want, math.Float32bits(r.want))
			}
		}
	}
	run("", func(k int) special { return rows[k] }, len(rows))
	for l := 0; l < 8; l++ {
		run(fmt.Sprintf(" (lane shift %d)", l), func(k int) special { return rows[(k/8+k%8+l)%len(rows)] }, 8*len(rows))
	}
}

// sameResult reports whether got has want's exact bits, or is any NaN
// where want is one.
func sameResult(got, want float32) bool {
	if want != want {
		return got != got
	}
	return math.Float32bits(got) == math.Float32bits(want)
}

var (
	minDenormal = math.Float32frombits(1)
	maxDenormal = math.Float32frombits(0x007fffff)
)

func below(x float32) float32 { return math.Nextafter32(x, negInf) }
func above(x float32) float32 { return math.Nextafter32(x, posInf) }

func TestTanhIntoSpecials(t *testing.T) {
	checkSpecials(t, TanhInto, []special{
		{"+0", 0, 0},
		{"-0 keeps its sign", negZero, negZero},
		{"+Inf", posInf, 1},
		{"-Inf", negInf, -1},
		{"NaN propagates", nan32, nan32},
		{"smallest denormal", minDenormal, minDenormal},
		{"largest denormal", -maxDenormal, -maxDenormal},
		{"smallest normal", 0x1p-126, 0x1p-126},
		{"x² underflows", 1e-30, 1e-30},
		{"largest float32", math.MaxFloat32, 1},
		{"most negative float32", -math.MaxFloat32, -1},
		{"the clamp", tanhClamp, 1},
		{"past the clamp", -above(tanhClamp), -1},
		// The correctly rounded tanh is 1 from 9.011 on and 1 − 2⁻²⁴ just
		// before; the kernel agrees on both sides.
		{"saturated", 9.02, 1},
		{"last value below 1", 9, below(1)},
	})
	// The two formulas meet at tanhSplit without a step down.
	seam := []float32{below(below(tanhSplit)), below(tanhSplit), tanhSplit, above(tanhSplit), above(above(tanhSplit))}
	TanhInto(seam, seam)
	for i := 1; i < len(seam); i++ {
		if seam[i] < seam[i-1] {
			t.Errorf("tanh steps down across the split: %v", seam)
		}
	}
}

func TestExpIntoSpecials(t *testing.T) {
	checkSpecials(t, ExpInto, []special{
		{"+0", 0, 1},
		{"-0", negZero, 1},
		{"-Inf", negInf, 0},
		{"+Inf", posInf, posInf},
		{"NaN propagates", nan32, nan32},
		{"smallest denormal", minDenormal, 1},
		{"largest denormal", -maxDenormal, 1},
		{"below half an ULP of 1", 2e-8, 1},
		{"largest finite result", expHi, 3.4027985e38},
		{"overflow", above(expHi), posInf},
		{"far overflow", math.MaxFloat32, posInf},
		// e^expLo is the first result that is a normal number; one float
		// below it libm returns the denormal 1.1754907e-38, the kernel +0.
		{"smallest normal result", expLo, 1.1754997e-38},
		{"first flushed input", below(expLo), 0},
		{"libm's denormal range", -100, 0},
		{"far underflow", -math.MaxFloat32, 0},
	})
	if want := math.Exp(float64(below(expLo))); !(want < 0x1p-126 && want > 0x1p-127) {
		t.Errorf("e^%g = %g: the input below expLo should be the first with a denormal exponential", below(expLo), want)
	}
}

// golden is one (input bits, result bits) pair as an amd64 build without
// fused multiply-add produced it. The kernels round after every product,
// so every GOARCH and GOAMD64 must reproduce the table; a port on which a
// product and a sum were contracted would differ in the low bits here.
type golden struct{ in, out uint32 }

func checkGolden(t *testing.T, kernel func(dst, src []float32), table []golden) {
	t.Helper()
	rows := make([]special, len(table))
	for i, g := range table {
		rows[i] = special{"golden", math.Float32frombits(g.in), math.Float32frombits(g.out)}
	}
	checkSpecials(t, kernel, rows)
}

func TestTanhIntoGoldenBits(t *testing.T) {
	checkGolden(t, TanhInto, []golden{
		{0x39d1b717, 0x39d1b716}, // 0.0004
		{0xbc4985f0, 0xbc498356}, // -0.0123
		{0x3d4ccccd, 0x3d4ca127}, // 0.05
		{0xbdcccccd, 0xbdcc1ebc}, // -0.1
		{0x3e2e147b, 0x3e2c6c15}, // 0.17
		{0xbe800000, 0xbe7acbf5}, // -0.25
		{0x3eaaa64c, 0x3ea49966}, // 0.3333
		{0xbed1eb85, 0xbec6e5e4}, // -0.41
		{0x3f000000, 0x3eec9a9f}, // 0.5
		{0xbf0ccccd, 0xbf002218}, // -0.55
		{0x3f1eb852, 0x3f0d16ba}, // 0.62
		{0xbf350481, 0xbf1bdded}, // -0.7071
		{0x3f4ccccd, 0x3f29fe50}, // 0.8
		{0xbf666666, 0xbf375f4c}, // -0.9
		{0x3f7851ec, 0x3f3fab16}, // 0.97
		{0xbf7fffff, 0xbf42f7d5}, // -0.99999994
		{0x3f800000, 0x3f42f7d6}, // 1
		{0xbf800001, 0xbf42f7d6}, // -1.0000001
		{0x3f9ae148, 0x3f5630a1}, // 1.21
		{0xbfc00000, 0xbf67b7cc}, // -1.5
		{0x3fe28f5c, 0x3f719063}, // 1.77
		{0xc0000000, 0xbf76ca83}, // -2
		{0x4019999a, 0x3f7bd21e}, // 2.4
		{0xc039999a, 0xbf7e745f}, // -2.9
		{0x40533333, 0x3f7f4df0}, // 3.3
		{0xc0833333, 0xbf7fdc03}, // -4.1
		{0x40a66666, 0x3f7ffc03}, // 5.2
		{0xc0c9999a, 0xbf7fff8f}, // -6.3
		{0x40f66666, 0x3f7ffff9}, // 7.7
		{0xc10e6666, 0xbf7fffff}, // -8.9
		{0x4114cccd, 0x3f800000}, // 9.3
		{0xc1280000, 0xbf800000}, // -10.5
	})
}

func TestExpIntoGoldenBits(t *testing.T) {
	checkGolden(t, ExpInto, []golden{
		{0x38d1b717, 0x3f800347}, // 0.0001
		{0xba83126f, 0x3f7fbe7f}, // -0.001
		{0x3ca3d70a, 0x3f8295f5}, // 0.02
		{0xbdcccccd, 0x3f67a36d}, // -0.1
		{0x3e99999a, 0x3facc82c}, // 0.3
		{0xbeb1719f, 0x3f35051e}, // -0.34657
		{0x3eb172ef, 0x3fb5053f}, // 0.34658
		{0xbf000000, 0x3f1b4598}, // -0.5
		{0x3f317218, 0x40000000}, // 0.6931472
		{0xbf800000, 0x3ebc5ab2}, // -1
		{0x3fc00000, 0x408f69ff}, // 1.5
		{0xc00ccccd, 0x3de2ecc4}, // -2.2
		{0x40466666, 0x41b19566}, // 3.1
		{0xc0966666, 0x3c15045d}, // -4.7
		{0x40dccccd, 0x44781196}, // 6.9
		{0xc114cccd, 0x38bfbb00}, // -9.3
		{0x41480000, 0x48830629}, // 12.5
		{0xc1880000, 0x3331cf18}, // -17
		{0x41bb3333, 0x5058a04a}, // 23.4
		{0xc1f80000, 0x291b090f}, // -31
		{0x42213333, 0x5c8d1a79}, // 40.3
		{0xc23ecccd, 0x1d115b1a}, // -47.7
		{0x425e0000, 0x678652fb}, // 55.5
		{0xc2786666, 0x12a9e95c}, // -62.1
		{0x428cce63, 0x723e0bac}, // 70.4031
		{0xc2993333, 0x0833b6e2}, // -76.6
		{0x42a26666, 0x7a0db6a5}, // 81.2
		{0xc2a2ca22, 0x04be4d0c}, // -81.39479
		{0x42ac0000, 0x7d86876d}, // 86
		{0xc2ae999a, 0x0084c38b}, // -87.3
		{0x42b17217, 0x7f7fff84}, // 88.72283
		{0xc2aeac4f, 0x00800026}, // -87.33654
	})
}

func TestTranscendLengthMismatchPanics(t *testing.T) {
	for name, kernel := range map[string]func(dst, src []float32){"TanhInto": TanhInto, "ExpInto": ExpInto} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic for dst and src of different lengths", name)
				}
			}()
			kernel(make([]float32, 3), make([]float32, 4))
		}()
	}
}

// transcendKernels pairs each kernel with its scalar loop.
var transcendKernels = []struct {
	name           string
	kernel, scalar func(dst, src []float32)
}{{"TanhInto", TanhInto, tanhGeneric}, {"ExpInto", ExpInto, expGeneric}}

// transcendEdges are the inputs at every edge of the two kernels, each
// with both signs: zeros, denormals, infinities, quiet and signalling
// NaNs with payloads, and the floats at and beside each formula's
// boundary.
func transcendEdges() []float32 {
	xs := []float32{0, minDenormal, maxDenormal, 0x1p-126, 1e-30, posInf, math.MaxFloat32,
		math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc12345), // quiet NaNs
		math.Float32frombits(0x7f800001), math.Float32frombits(0x7fa5a5a5), // signalling NaNs
	}
	for _, edge := range []float32{expHi, -expLo, tanhSplit, tanhClamp, 9.01} {
		xs = append(xs, below(edge), edge, above(edge))
	}
	return append(xs, negated(xs)...)
}

// transcendInputs returns the edges followed by n random bit patterns.
func transcendInputs(rng *rand.Rand, n int) []float32 {
	xs := transcendEdges()
	for i := 0; i < n; i++ {
		xs = append(xs, math.Float32frombits(rng.Uint32()))
	}
	return xs
}

// bitsMismatch names the first index at which got and want differ in any
// bit, or returns "".
func bitsMismatch(in, got, want []float32) string {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Sprintf("index %d of %d: f(%#08x) = %#08x, the scalar loop gives %#08x",
				i, len(want), math.Float32bits(in[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	return ""
}

// TestTranscendAVXMatchesGenericBits pins the AVX lanes to the scalar
// loop bit for bit, NaN payloads included: every length 0–40 at every
// slice offset 0–7, so each edge input sits in each lane and in the
// tail, with dst apart from src and dst == src; then 2²⁴ inputs that
// take every sign, exponent and high mantissa bit pattern, the low
// mantissa byte rotating.
func TestTranscendAVXMatchesGenericBits(t *testing.T) {
	lanes := tier
	if lanes == tierGeneric {
		t.Skip("no AVX: the scalar loop is the only path")
	}
	defer func() { tier = lanes }()
	inputs := transcendInputs(rand.New(rand.NewSource(30)), 37)
	both := func(k func(dst, src []float32), src []float32) (vector, scalar, inPlace []float32) {
		vector, scalar = make([]float32, len(src)), make([]float32, len(src))
		inPlace = append([]float32(nil), src...)
		tier = lanes
		k(vector, src)
		k(inPlace, inPlace)
		tier = tierGeneric
		k(scalar, src)
		return vector, scalar, inPlace
	}
	for _, k := range transcendKernels {
		start := 0
		for n := 0; n <= 40; n++ {
			for off := 0; off < 8; off++ {
				buf := make([]float32, off+n)
				src := buf[off:]
				for i := range src {
					src[i] = inputs[(start+i)%len(inputs)]
				}
				start++
				vector, scalar, inPlace := both(k.kernel, src)
				if diff := bitsMismatch(src, vector, scalar); diff != "" {
					t.Fatalf("%s n=%d offset=%d: %s", k.name, n, off, diff)
				}
				if diff := bitsMismatch(src, inPlace, scalar); diff != "" {
					t.Fatalf("%s n=%d offset=%d in place: %s", k.name, n, off, diff)
				}
			}
		}
		src := make([]float32, 1<<12)
		for hi := uint32(0); hi < 1<<24; hi += uint32(len(src)) {
			for i := range src {
				h := hi + uint32(i)
				src[i] = math.Float32frombits(h<<8 | uint32(bits.RotateLeft8(uint8(h), int(h>>8))))
			}
			vector, scalar, inPlace := both(k.kernel, src)
			if diff := bitsMismatch(src, vector, scalar); diff != "" {
				t.Fatalf("%s sweep: %s", k.name, diff)
			}
			if diff := bitsMismatch(src, inPlace, scalar); diff != "" {
				t.Fatalf("%s sweep in place: %s", k.name, diff)
			}
		}
	}
}

// FuzzTanhExp runs both kernels on random bit patterns at a random slice
// offset and checks that the kernel (vector lanes where AVX exists)
// matches the scalar loop bit for bit, that each result is within its
// kernel's stated bounds of float64 libm, that tanh is odd bit for bit
// and that exp does not step down to the next float up. (tanh does, by
// one ULP at a few inputs near 0.9, so its order is the sweep's to
// check.)
func FuzzTanhExp(f *testing.F) {
	edges := transcendEdges()
	seed := make([]byte, 4*len(edges))
	for i, x := range edges {
		binary.LittleEndian.PutUint32(seed[4*i:], math.Float32bits(x))
	}
	for off := uint8(0); off < 8; off++ {
		f.Add(seed[4*off:], off)
	}
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		buf := make([]float32, int(off%8)+len(data)/4)
		src := buf[off%8:]
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		for _, k := range transcendKernels {
			got, want := make([]float32, len(src)), make([]float32, len(src))
			k.kernel(got, src)
			k.scalar(want, src)
			if diff := bitsMismatch(src, got, want); diff != "" {
				t.Fatalf("%s offset=%d: %s", k.name, off%8, diff)
			}
		}
		th, neg, ex, up := make([]float32, len(src)), negated(src), make([]float32, len(src)), make([]float32, len(src))
		TanhInto(th, src)
		TanhInto(neg, neg)
		ExpInto(ex, src)
		for i, x := range src {
			up[i] = above(x)
		}
		ExpInto(up, up)
		for i, x := range src {
			if ex[i] > up[i] {
				t.Fatalf("exp(%g) = %g but exp(%g) = %g: decreasing", x, ex[i], above(x), up[i])
			}
			if math.Float32bits(neg[i]) != math.Float32bits(-th[i]) {
				t.Fatalf("tanh(%#08x) = %#08x but tanh of its negation %#08x: not odd bit for bit",
					math.Float32bits(x), math.Float32bits(th[i]), math.Float32bits(neg[i]))
			}
			if x != x {
				if th[i] == th[i] || ex[i] == ex[i] {
					t.Fatalf("NaN %#08x gives tanh %g, exp %g: NaN must propagate", math.Float32bits(x), th[i], ex[i])
				}
				continue
			}
			want := math.Tanh(float64(x))
			if u, d := ulps(th[i], want), math.Abs(float64(th[i])-want); u > 1.5 || d > 1e-7 {
				t.Fatalf("tanh(%g) = %g: %.3f ULP and %.3g off; TanhInto states 1.5 ULP and 1e-7", x, th[i], u, d)
			}
			if u, d, edge := expError(x, ex[i]); edge != "" || u > 1 || d > 6e-8 {
				t.Fatalf("exp(%g) = %g: %.3f ULP and %.3g off %s; ExpInto states 1 ULP, and 6e-8 for x ≤ 0", x, ex[i], u, d, edge)
			}
		}
	})
}
