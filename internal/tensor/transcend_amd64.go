//go:build amd64

package tensor

import "math"

// Slots of transcendK, each eight copies of one constant (one vector):
// the offsets transcend_amd64.s reads are these indices times 32 bytes,
// and the two lists must stay in one order.
const (
	kOne = iota
	kTwo
	kSign
	kInf
	kExpHi
	kExpLo
	kExpLog2e
	kExpMagic
	kExpLn2Hi
	kExpLn2Lo
	kExpP0
	kExpP1
	kExpP2
	kExpP3
	kExpP4
	kExpP5
	kTanhSplit
	kTanhClamp
	kTanhG0
	kTanhG1
	kTanhG2
	kTanhG3
	kTanhG4
	kTanhG5
	kTanhG6
	kTanhG7
	kSlots
)

// transcendK is the constant table of the AVX tanh and exp kernels,
// built from transcend.go's named constants so that no coefficient is
// written twice.
var transcendK = func() (k [8 * kSlots]float32) {
	for slot, c := range [kSlots]float32{
		kOne: 1, kTwo: 2,
		kSign: math.Float32frombits(signBit32), kInf: float32(math.Inf(1)),
		kExpHi: expHi, kExpLo: expLo,
		kExpLog2e: expLog2e, kExpMagic: expMagic, kExpLn2Hi: expLn2Hi, kExpLn2Lo: expLn2Lo,
		kExpP0: expP0, kExpP1: expP1, kExpP2: expP2, kExpP3: expP3, kExpP4: expP4, kExpP5: expP5,
		kTanhSplit: tanhSplit, kTanhClamp: tanhClamp,
		kTanhG0: tanhG0, kTanhG1: tanhG1, kTanhG2: tanhG2, kTanhG3: tanhG3,
		kTanhG4: tanhG4, kTanhG5: tanhG5, kTanhG6: tanhG6, kTanhG7: tanhG7,
	} {
		for lane := 0; lane < 8; lane++ {
			k[8*slot+lane] = c
		}
	}
	return k
}()

// tanhAVX and expAVX (transcend_amd64.s) write tanhGeneric's and
// expGeneric's results for src[0:n] to dst[0:n], eight lanes at a time;
// n is a positive multiple of 8, and dst may be src.
//
//go:noescape
func tanhAVX(dst, src *float32, n int, k *[8 * kSlots]float32)

//go:noescape
func expAVX(dst, src *float32, n int, k *[8 * kSlots]float32)

// tanhLanes runs the whole groups of eight of TanhInto's operands
// through tanhAVX and returns how many it wrote: none without AVX.
func tanhLanes(dst, src []float32) int {
	n := len(src) &^ 7
	if !useAVX || n == 0 {
		return 0
	}
	tanhAVX(&dst[0], &src[0], n, &transcendK)
	return n
}

// expLanes is tanhLanes for ExpInto.
func expLanes(dst, src []float32) int {
	n := len(src) &^ 7
	if !useAVX || n == 0 {
		return 0
	}
	expAVX(&dst[0], &src[0], n, &transcendK)
	return n
}
