// AVX tanh and exp lanes for TanhInto and ExpInto (see transcend.go).
//
// Each vector lane runs tanhGeneric's or expGeneric's float32 sequence
// for one element: every Go operation is one VMULPS, VADDPS, VSUBPS or
// VDIVPS, rounding once, with the Go expression's left operand as the
// instruction's first source and no fused multiply-add, so each lane's
// result is bit-identical to the scalar loop's. Where the loop branches,
// a lane computes both sides and a compare mask selects (VBLENDVPS,
// VANDNPS). ldexp32 stays an integer add on the exponent field; AVX1 has
// no 256-bit integer ops, so the shift and add run on the two 128-bit
// halves and the probe that gates these kernels is hasAVX alone.
//
// Constants come from transcendK (transcend_amd64.go): slot i holds one
// constant eight times, at byte offset 32·i from R8, and is read as a
// memory operand or hoisted into a register before the loop.

#include "textflag.h"

#define ONE 0
#define TWO 32
#define SIGN 64
#define INF 96
#define EXPHI 128
#define EXPLO 160
#define LOG2E 192
#define MAGIC 224
#define LN2HI 256
#define LN2LO 288
#define P0 320
#define P1 352
#define P2 384
#define P3 416
#define P4 448
#define P5 480
#define SPLIT 512
#define CLAMP 544
#define G0 576
#define G1 608
#define G2 640
#define G3 672
#define G4 704
#define G5 736
#define G6 768
#define G7 800

// VCMPPS predicates, quiet like Go's comparisons; all false on NaN.
#define LT_OQ $0x11
#define LE_OQ $0x12
#define GE_OQ $0x1d
#define UNORD_Q $0x03

// expcore sets Y9 to ldexp32(expPoly(r), int32(n)) with n, r =
// expSplit(Y8), the input kept. Y10–Y12 are clobbered: Y10 holds n,
// Y11 r, Y12 the polynomial, each after its Go name.
#define expcore \
	VMULPS       LOG2E(R8), Y8, Y10;  /* n = float32(x*expLog2e) + expMagic */ \
	VADDPS       MAGIC(R8), Y10, Y10; \
	VSUBPS       MAGIC(R8), Y10, Y10; /* n -= expMagic */                    \
	VMULPS       LN2HI(R8), Y10, Y12; /* r = x - float32(n*expLn2Hi) */       \
	VSUBPS       Y12, Y8, Y11;        \
	VMULPS       LN2LO(R8), Y10, Y12; /* r - float32(n*expLn2Lo) */           \
	VSUBPS       Y12, Y11, Y11;       \
	VMULPS       P0(R8), Y11, Y9;     /* p = float32(r*expP0) + expP1 */      \
	VADDPS       P1(R8), Y9, Y9;      \
	VMULPS       Y9, Y11, Y9;         /* p = float32(r*p) + expP2 … expP5 */  \
	VADDPS       P2(R8), Y9, Y9;      \
	VMULPS       Y9, Y11, Y9;         \
	VADDPS       P3(R8), Y9, Y9;      \
	VMULPS       Y9, Y11, Y9;         \
	VADDPS       P4(R8), Y9, Y9;      \
	VMULPS       Y9, Y11, Y9;         \
	VADDPS       P5(R8), Y9, Y9;      \
	VMULPS       Y11, Y11, Y12;       /* float32(float32(r*r)*p) + r + 1 */   \
	VMULPS       Y9, Y12, Y12;        \
	VADDPS       Y11, Y12, Y12;       \
	VADDPS       ONE(R8), Y12, Y12;   \
	VCVTTPS2DQ   Y10, Y10;            /* int32(n), truncating as Go does */   \
	VEXTRACTF128 $1, Y10, X11;        /* bits + uint32(k)<<23, per half */    \
	VEXTRACTF128 $1, Y12, X9;         \
	VPSLLD       $23, X10, X10;       \
	VPSLLD       $23, X11, X11;       \
	VPADDD       X10, X12, X10;       \
	VPADDD       X11, X9, X11;        \
	VINSERTF128  $1, X11, Y10, Y9

// func tanhAVX(dst, src *float32, n int, k *[8 * kSlots]float32)
//
// Y0 holds x, Y1 a = |x|; the small path builds its result in Y2 (s)
// and Y3, the large one in Y8 (2a) and Y9. Y13–Y15 hold 2, 1 and the
// sign mask for the whole call.
TEXT ·tanhAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ k+24(FP), R8
	TESTQ CX, CX
	JZ   tanhdone
	VMOVUPS TWO(R8), Y13
	VMOVUPS ONE(R8), Y14
	VMOVUPS SIGN(R8), Y15

tanhloop:
	VMOVUPS (SI), Y0
	VANDNPS Y0, Y15, Y1          // a = x &^ signBit32

	// a < tanhSplit, zero or NaN: a + a·s·g(s).
	VMULPS Y1, Y1, Y2            // s = float32(a * a)
	VMULPS G7(R8), Y2, Y3        // g = float32(s*tanhG7) + tanhG6
	VADDPS G6(R8), Y3, Y3
	VMULPS Y3, Y2, Y3            // g = float32(s*g) + tanhG5 … tanhG0
	VADDPS G5(R8), Y3, Y3
	VMULPS Y3, Y2, Y3
	VADDPS G4(R8), Y3, Y3
	VMULPS Y3, Y2, Y3
	VADDPS G3(R8), Y3, Y3
	VMULPS Y3, Y2, Y3
	VADDPS G2(R8), Y3, Y3
	VMULPS Y3, Y2, Y3
	VADDPS G1(R8), Y3, Y3
	VMULPS Y3, Y2, Y3
	VADDPS G0(R8), Y3, Y3
	VMULPS Y3, Y2, Y3            // t = a + float32(a*float32(s*g))
	VMULPS Y3, Y1, Y3
	VADDPS Y3, Y1, Y3

	// a ≥ tanhSplit: 1 − 2/(e²ᵃ + 1), a clamped to tanhClamp.
	VMINPS CLAMP(R8), Y1, Y8     // if a > tanhClamp { a = tanhClamp }
	VADDPS Y8, Y8, Y8            // expSplit(a + a)
	expcore
	VADDPS Y14, Y9, Y9           // t = 1 - 2/(e+1)
	VDIVPS Y9, Y13, Y9
	VSUBPS Y9, Y14, Y9

	VCMPPS    GE_OQ, SPLIT(R8), Y1, Y2 // !(a >= tanhSplit) takes the small path
	VBLENDVPS Y2, Y9, Y3, Y3
	VANDPS    Y15, Y0, Y0              // | bits&signBit32
	VORPS     Y0, Y3, Y3
	VMOVUPS   Y3, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  tanhloop
	VZEROUPPER

tanhdone:
	RET

// func expAVX(dst, src *float32, n int, k *[8 * kSlots]float32)
//
// Y8 holds x and Y9 the result; Y13 holds +Inf for the whole call.
TEXT ·expAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ k+24(FP), R8
	TESTQ CX, CX
	JZ   expdone
	VMOVUPS INF(R8), Y13

exploop:
	VMOVUPS (SI), Y8
	expcore

	VCMPPS    LE_OQ, EXPHI(R8), Y8, Y0 // x <= expHi: the main path …
	VBLENDVPS Y0, Y9, Y13, Y9          // … else +Inf,
	VCMPPS    UNORD_Q, Y8, Y8, Y1      // … or x itself where it is NaN;
	VBLENDVPS Y1, Y8, Y9, Y9
	VCMPPS    LT_OQ, EXPLO(R8), Y8, Y2 // x < expLo gives +0
	VANDNPS   Y9, Y2, Y9
	VMOVUPS   Y9, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  exploop
	VZEROUPPER

expdone:
	RET
