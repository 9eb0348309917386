package tensor

import (
	"fmt"
	"math"
)

// Transcendental slice kernels: the tanh under GELU and the exp under
// the attention softmax, evaluated in float32 with one rounding per
// operation. Every product is wrapped in an explicit float32(...)
// conversion, which the language defines as a rounding point, so no
// compiler may contract a multiply and an add into a fused multiply-add
// (the arm64, ppc64le, riscv64 and s390x compilers otherwise do): the
// result bits depend on the input bits alone, on every GOARCH. That is
// more than Go's math package promises — math.Exp is assembly on some
// ports and pure Go on others — and it is what lets these kernels sit
// under the engine's bit-identity invariant as the single implementation
// of their function.
//
// The scalar loops (tanhGeneric, expGeneric) are the contract: one
// float32 sequence per element. Where AVX exists, whole groups of eight
// run through transcend_amd64.s, which performs that same sequence in
// each vector lane — one instruction per Go operation, in the Go
// expression's order, no fused multiply-add — and computes both sides of
// every branch, blending per lane where the loop branches. The scalar
// loop takes the tail, hosts without AVX and every other port, and is
// the vector kernels' oracle.
//
// Accuracy is stated per kernel and enforced by transcend_test.go over a
// sweep of the whole float32 range.

// Below tanhSplit, tanh(a) = a + a·s·g(s) with s = a²: tanhG0…tanhG7 are
// the Chebyshev fit of g on s ∈ [0, 1.01] (error 2e-9, a thirtieth of an
// ULP of the result). From tanhSplit on, tanh(a) = 1 − 2/(e²ᵃ + 1), where
// the subtraction no longer cancels.
const (
	tanhG0 float32 = -0.3333333314446478
	tanhG1 float32 = 0.13333309320970502
	tanhG2 float32 = -0.053963179895723384
	tanhG3 float32 = 0.02182801225764439
	tanhG4 float32 = -0.008693095495666357
	tanhG5 float32 = 0.0031993068308099845
	tanhG6 float32 = -0.0009176687777148156
	tanhG7 float32 = 0.00014101923923672026

	tanhSplit float32 = 1
	// tanhClamp is past where 1 − 2/(e²ᵃ+1) rounds to 1 (a ≈ 9.01) and
	// keeps 2a far from the exponential's overflow.
	tanhClamp float32 = 10

	signBit32 = 1 << 31
)

// TanhInto writes tanh(src[i]) to dst[i]; dst and src have one length and
// may be the same slice.
//
// Within 1.5 ULP and 1e-7 absolute of tanh over the whole range.
// Odd-symmetric bit for bit, the sign of a zero kept; non-decreasing over
// the oracle's sweep; |result| ≤ 1, with ±1 from |x| ≈ 9.01 to ±Inf as
// the correctly rounded tanh has; NaN propagates; denormal inputs return
// themselves.
func TanhInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: TanhInto length mismatch %d vs %d", len(dst), len(src)))
	}
	n := tanhLanes(dst, src)
	tanhGeneric(dst[n:], src[n:])
}

// tanhGeneric is TanhInto's element sequence, one element at a time.
func tanhGeneric(dst, src []float32) {
	for i, x := range src {
		bits := math.Float32bits(x)
		a := math.Float32frombits(bits &^ signBit32)
		var t float32
		if !(a >= tanhSplit) { // small, zero or NaN
			s := float32(a * a)
			g := float32(s*tanhG7) + tanhG6
			g = float32(s*g) + tanhG5
			g = float32(s*g) + tanhG4
			g = float32(s*g) + tanhG3
			g = float32(s*g) + tanhG2
			g = float32(s*g) + tanhG1
			g = float32(s*g) + tanhG0
			t = a + float32(a*float32(s*g))
		} else {
			if a > tanhClamp {
				a = tanhClamp
			}
			n, r := expSplit(a + a)
			t = 1 - 2/(ldexp32(expPoly(r), int32(n))+1)
		}
		dst[i] = math.Float32frombits(math.Float32bits(t) | bits&signBit32)
	}
}

const (
	// expHi is the largest input whose exponential is finite in float32;
	// expLo the smallest whose exponential is a normal float32.
	expHi float32 = 88.72283172607422
	expLo float32 = -87.33654022216797

	expLog2e float32 = 1.44269504088896341
	// expMagic is 1.5·2²³: adding it to |v| < 2²² leaves v rounded to the
	// nearest integer in the low mantissa bits, subtracting it again
	// gives that integer as a float32.
	expMagic float32 = 12582912
	// ln 2 split so that n·expLn2Hi is exact: 9 bits times the 8 of an
	// |n| ≤ 128.
	expLn2Hi float32 = 0.693359375
	expLn2Lo float32 = -2.12194440e-4

	// Degree-5 minimax polynomial of (eʳ − 1 − r)/r² on |r| ≤ ln2/2
	// (Cephes expf).
	expP0 float32 = 1.9875691500e-4
	expP1 float32 = 1.3981999507e-3
	expP2 float32 = 8.3334519073e-3
	expP3 float32 = 4.1665795894e-2
	expP4 float32 = 1.6666665459e-1
	expP5 float32 = 5.0000001201e-1
)

// ExpInto writes e^src[i] to dst[i]; dst and src have one length and may
// be the same slice.
//
// Within 1 ULP of the exponential wherever that is a normal float32 (so
// within 6e-8 absolute for x ≤ 0), and non-decreasing. An exponential
// below the smallest normal float32 (inputs under −87.33654) is flushed
// to +0 instead of a denormal: the softmax it serves divides by a sum
// that holds a 1, so such a term is below 2⁻¹²⁶ in the result either
// way, and no result depends on how a port treats denormals. Inputs
// above 88.72283 give +Inf, −Inf gives +0, NaN propagates, zeros and
// denormal inputs give 1.
func ExpInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ExpInto length mismatch %d vs %d", len(dst), len(src)))
	}
	n := expLanes(dst, src)
	expGeneric(dst[n:], src[n:])
}

// expGeneric is ExpInto's element sequence, one element at a time.
func expGeneric(dst, src []float32) {
	for i, x := range src {
		if !(x <= expHi) { // too large, or NaN
			if x == x {
				x = float32(math.Inf(1))
			}
			dst[i] = x
			continue
		}
		if x < expLo {
			dst[i] = 0
			continue
		}
		// At n = −126 (x ≥ expLo) r is positive and the polynomial above 1;
		// at n = 128 (x ≤ expHi) r is negative and it is below 1: the
		// scaled result is a normal number at both ends.
		n, r := expSplit(x)
		dst[i] = ldexp32(expPoly(r), int32(n))
	}
}

// expSplit returns the integer n nearest x/ln2 and r = x − n·ln2,
// |r| ≤ ln2/2 up to rounding, for |x| < 2²¹.
func expSplit(x float32) (n, r float32) {
	n = float32(x*expLog2e) + expMagic
	n -= expMagic
	r = x - float32(n*expLn2Hi)
	return n, r - float32(n*expLn2Lo)
}

// expPoly is eʳ for |r| ≤ ln2/2.
func expPoly(r float32) float32 {
	p := float32(r*expP0) + expP1
	p = float32(r*p) + expP2
	p = float32(r*p) + expP3
	p = float32(r*p) + expP4
	p = float32(r*p) + expP5
	return float32(float32(r*r)*p) + r + 1
}

// ldexp32 is y·2ᵏ by adding k to y's exponent field: exact, provided the
// result is a normal float32.
func ldexp32(y float32, k int32) float32 {
	return math.Float32frombits(math.Float32bits(y) + uint32(k)<<23)
}
