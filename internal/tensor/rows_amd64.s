// AVX lanes for the row kernels (see rows.go).
//
// Row lanes: a reduction over a row runs in one float64 lane per row,
// four rows at a time. GATHER4 loads one column of the four rows into
// the four lanes of an XMM register, which VCVTPS2PD widens to a YMM
// register of four float64s; the chain then advances one column per
// instruction, in ascending column order, each lane exactly the scalar
// loop's sequence for its row.
//
// Element lanes: an elementwise step runs one element per lane, eight
// float32 lanes or, where the loop widens to float64, four float64 lanes
// (VCVTPS2PD from memory, VCVTPD2PS back).
//
// Sum lanes: a float64 sum over a whole tensor runs four partial sums,
// one per lane of a YMM accumulator, element j in lane j mod 4 — the
// order rows.go declares, which its scalar loop follows too.
//
// Every Go operation is one instruction, and no multiply-add is fused:
// each lane's result is the scalar loop's, bit for bit. Where both
// operands of an add or a multiply are NaN, x86 returns the first
// source's, so each instruction takes its operands in the roles the
// compiled scalar loop gives them — which for a commutative operation is
// the compiler's choice, not always the Go expression's order (rows.go
// pins the roles two compilations disagreed on). The comments give the
// Go expression; the oracle suites pin the roles.

#include "textflag.h"

DATA rowsOne64<>+0(SB)/8, $0x3ff0000000000000
GLOBL rowsOne64<>(SB), RODATA|NOPTR, $8

DATA rowsOne32<>+0(SB)/4, $0x3f800000
GLOBL rowsOne32<>(SB), RODATA|NOPTR, $4

DATA rowsHalf32<>+0(SB)/4, $0x3f000000
GLOBL rowsHalf32<>(SB), RODATA|NOPTR, $4

// GATHER4 loads the floats at p0, p0+s, p0+2s and p3 — one column of
// four rows s bytes apart, p3 = p0+3s — into the lanes of x, in order.
#define GATHER4(p0, p3, s, x) \
	VMOVSS    (p0), x; \
	VINSERTPS $0x10, (p0)(s*1), x, x; \
	VINSERTPS $0x20, (p0)(s*2), x, x; \
	VINSERTPS $0x30, (p3), x, x

// ROW3 sets p3 to the row three rows of s bytes after p0.
#define ROW3(p0, s, p3) \
	LEAQ (p0)(s*2), p3; \
	ADDQ s, p3

// func layerNormStatsAVX(mean, invStd *float64, x *float32, groups, d int, fd, eps float64)
//
// Per group: Y0 the four means, Y2 the variances; R8/R9 walk rows 0 and 3
// of the group column by column.
TEXT ·layerNormStatsAVX(SB), NOSPLIT, $0-56
	MOVQ         mean+0(FP), DI
	MOVQ         invStd+8(FP), R11
	MOVQ         x+16(FP), SI
	MOVQ         groups+24(FP), BX
	MOVQ         d+32(FP), R12
	MOVQ         R12, DX
	SHLQ         $2, DX
	VBROADCASTSD fd+40(FP), Y15
	VBROADCASTSD eps+48(FP), Y14
	VBROADCASTSD rowsOne64<>(SB), Y13

sgroup:
	ROW3(SI, DX, R13)
	MOVQ   SI, R8
	MOVQ   R13, R9
	MOVQ   R12, CX
	VXORPD Y0, Y0, Y0

smean:
	GATHER4(R8, R9, DX, X1)
	VCVTPS2PD X1, Y1
	VADDPD    Y1, Y0, Y0 // mean += float64(v)
	ADDQ      $4, R8
	ADDQ      $4, R9
	DECQ      CX
	JNZ       smean
	VDIVPD    Y15, Y0, Y0 // mean /= d
	MOVQ      SI, R8
	MOVQ      R13, R9
	MOVQ      R12, CX
	VXORPD    Y2, Y2, Y2

svar:
	GATHER4(R8, R9, DX, X1)
	VCVTPS2PD X1, Y1
	VSUBPD    Y0, Y1, Y1 // dv = float64(v) - mean
	VMULPD    Y1, Y1, Y1
	VADDPD    Y1, Y2, Y2 // variance += dv*dv
	ADDQ      $4, R8
	ADDQ      $4, R9
	DECQ      CX
	JNZ       svar
	VDIVPD    Y15, Y2, Y2 // variance /= d
	VADDPD    Y14, Y2, Y2
	VSQRTPD   Y2, Y2
	VDIVPD    Y2, Y13, Y2 // 1 / √(variance+eps)
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y2, (R11)
	ADDQ      $32, DI
	ADDQ      $32, R11
	LEAQ      (SI)(DX*4), SI
	DECQ      BX
	JNZ       sgroup
	VZEROUPPER
	RET

// func layerNormAffineAVX(out, xhat, x, gain, bias *float32, mean, invStd *float64, rows, d, cols int)
//
// Y14 the row's mean, Y15 its s; AX the byte offset of the column group,
// CX the end of the lanes' columns, DX the row stride in bytes.
TEXT ·layerNormAffineAVX(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ xhat+8(FP), R10
	MOVQ x+16(FP), SI
	MOVQ gain+24(FP), R8
	MOVQ bias+32(FP), R9
	MOVQ mean+40(FP), R11
	MOVQ invStd+48(FP), R12
	MOVQ rows+56(FP), BX
	MOVQ d+64(FP), DX
	SHLQ $2, DX
	MOVQ cols+72(FP), CX
	SHLQ $2, CX

arow:
	VBROADCASTSD (R11), Y14
	VBROADCASTSD (R12), Y15
	XORQ         AX, AX

acol:
	VCVTPS2PD  (SI)(AX*1), Y0
	VSUBPD     Y14, Y0, Y0 // xh = (float64(v) - mean) * s
	VMULPD     Y15, Y0, Y0
	VCVTPS2PD  (R8)(AX*1), Y1
	VMULPD     Y0, Y1, Y1  // float32(float64(xh*gain) + bias)
	VCVTPS2PD  (R9)(AX*1), Y2
	VADDPD     Y2, Y1, Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (DI)(AX*1)
	TESTQ      R10, R10
	JZ         anext
	VCVTPD2PSY Y0, X0      // float32(xh)
	VMOVUPS    X0, (R10)(AX*1)

anext:
	ADDQ  $16, AX
	CMPQ  AX, CX
	JLT   acol
	ADDQ  DX, SI
	ADDQ  DX, DI
	ADDQ  $8, R11
	ADDQ  $8, R12
	TESTQ R10, R10
	JZ    askip
	ADDQ  DX, R10

askip:
	DECQ BX
	JNZ  arow
	VZEROUPPER
	RET

// func layerNormDotsAVX(a, b *float64, grad, xhat, gain *float32, groups, d int, fd float64)
//
// Per group: Y4 the four a sums, Y5 the b sums; R8/R9 walk rows 0 and 3
// of grad, R10/R11 of xhat, R12 the gain.
TEXT ·layerNormDotsAVX(SB), NOSPLIT, $0-64
	MOVQ         a+0(FP), BX
	MOVQ         b+8(FP), R13
	MOVQ         grad+16(FP), SI
	MOVQ         xhat+24(FP), DI
	MOVQ         d+48(FP), DX
	SHLQ         $2, DX
	VBROADCASTSD fd+56(FP), Y15

dgroup:
	MOVQ   SI, R8
	ROW3(SI, DX, R9)
	MOVQ   DI, R10
	ROW3(DI, DX, R11)
	MOVQ   gain+32(FP), R12
	MOVQ   d+48(FP), CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5

dcol:
	VBROADCASTSS (R12), X3
	VCVTPS2PD    X3, Y3
	GATHER4(R8, R9, DX, X1)
	VCVTPS2PD    X1, Y1
	VMULPD       Y1, Y3, Y1 // dxh = float64(g) * float64(gain)
	VADDPD       Y1, Y4, Y4 // a += dxh
	GATHER4(R10, R11, DX, X2)
	VCVTPS2PD    X2, Y2
	VMULPD       Y2, Y1, Y2 // b += float64(dxh * float64(xhat))
	VADDPD       Y5, Y2, Y5
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, R10
	ADDQ         $4, R11
	ADDQ         $4, R12
	DECQ         CX
	JNZ          dcol
	VDIVPD       Y15, Y4, Y4
	VDIVPD       Y15, Y5, Y5
	VMOVUPD      Y4, (BX)
	VMOVUPD      Y5, (R13)
	ADDQ         $32, BX
	ADDQ         $32, R13
	LEAQ         (SI)(DX*4), SI
	LEAQ         (DI)(DX*4), DI
	DECQ         groups+40(FP)
	JNZ          dgroup
	VZEROUPPER
	RET

// func layerNormDxAVX(dx, grad, xhat, gain *float32, a, b, invStd *float64, rows, d, cols int)
//
// Y13, Y14 and Y15 the row's a, b and s.
TEXT ·layerNormDxAVX(SB), NOSPLIT, $0-80
	MOVQ dx+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ xhat+16(FP), R8
	MOVQ gain+24(FP), R9
	MOVQ a+32(FP), R10
	MOVQ b+40(FP), R11
	MOVQ invStd+48(FP), R12
	MOVQ rows+56(FP), BX
	MOVQ d+64(FP), DX
	SHLQ $2, DX
	MOVQ cols+72(FP), CX
	SHLQ $2, CX

xrow:
	VBROADCASTSD (R10), Y13
	VBROADCASTSD (R11), Y14
	VBROADCASTSD (R12), Y15
	XORQ         AX, AX

xcol:
	VCVTPS2PD  (SI)(AX*1), Y0
	VCVTPS2PD  (R9)(AX*1), Y1
	VMULPD     Y0, Y1, Y0  // dxh = float64(g) * float64(gain)
	VSUBPD     Y13, Y0, Y0 // dxh - a
	VCVTPS2PD  (R8)(AX*1), Y2
	VMULPD     Y14, Y2, Y2 // float64(float64(xhat) * b)
	VSUBPD     Y2, Y0, Y0
	VMULPD     Y15, Y0, Y0 // s * (...)
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*1)
	ADDQ       $16, AX
	CMPQ       AX, CX
	JLT        xcol
	ADDQ       DX, DI
	ADDQ       DX, SI
	ADDQ       DX, R8
	ADDQ       $8, R10
	ADDQ       $8, R11
	ADDQ       $8, R12
	DECQ       BX
	JNZ        xrow
	VZEROUPPER
	RET

// func layerNormParamGradAVX(dGain, dBias, grad, xhat *float32, rows, d, cols int)
//
// Row by row, as the scalar loop: each column's two sums live in dGain
// and dBias, one lane per column.
TEXT ·layerNormParamGradAVX(SB), NOSPLIT, $0-56
	MOVQ dGain+0(FP), DI
	MOVQ dBias+8(FP), R8
	MOVQ grad+16(FP), SI
	MOVQ xhat+24(FP), R9
	MOVQ rows+32(FP), BX
	MOVQ d+40(FP), DX
	SHLQ $2, DX
	MOVQ cols+48(FP), CX
	SHLQ $2, CX

prow:
	XORQ AX, AX

pcol:
	VCVTPS2PD  (SI)(AX*1), Y0
	VCVTPS2PD  (R9)(AX*1), Y1
	VMULPD     Y1, Y0, Y1 // float32(float64(g) * float64(xhat))
	VCVTPD2PSY Y1, X1
	VADDPS     (DI)(AX*1), X1, X1 // dGain += ...
	VMOVUPS    X1, (DI)(AX*1)
	VMOVUPS    (R8)(AX*1), X3
	VADDPS     (SI)(AX*1), X3, X3 // dBias += g
	VMOVUPS    X3, (R8)(AX*1)
	ADDQ       $16, AX
	CMPQ       AX, CX
	JLT        pcol
	ADDQ       DX, SI
	ADDQ       DX, R9
	DECQ       BX
	JNZ        prow
	VZEROUPPER
	RET

// func rowMaxAVX(m, x *float32, groups, d int, scale float32)
//
// X0 the four rows' maxima, X15 the scale: VMAXPS with the new value as
// first source returns it where it is greater and the maximum so far
// where not — on equal values, zeros of either sign and NaN alike — which
// is the scalar loop's `if v > m { m = v }`.
TEXT ·rowMaxAVX(SB), NOSPLIT, $0-36
	MOVQ         m+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         groups+16(FP), BX
	MOVQ         d+24(FP), R12
	MOVQ         R12, DX
	SHLQ         $2, DX
	VBROADCASTSS scale+32(FP), X15

mgroup:
	MOVQ SI, R8
	ROW3(SI, DX, R9)
	GATHER4(R8, R9, DX, X0)
	VMULPS X15, X0, X0 // m = float32(row[0] * scale)
	MOVQ   R12, CX
	DECQ   CX
	JZ     mdone

mcol:
	ADDQ   $4, R8
	ADDQ   $4, R9
	GATHER4(R8, R9, DX, X1)
	VMULPS X15, X1, X1
	VMAXPS X0, X1, X0
	DECQ   CX
	JNZ    mcol

mdone:
	VMOVUPS X0, (DI)
	ADDQ    $16, DI
	LEAQ    (SI)(DX*4), SI
	DECQ    BX
	JNZ     mgroup
	RET

// func softmaxShiftAVX(out, x, m *float32, rows, d, cols int, scale float32)
TEXT ·softmaxShiftAVX(SB), NOSPLIT, $0-52
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         rows+24(FP), BX
	MOVQ         d+32(FP), DX
	SHLQ         $2, DX
	MOVQ         cols+40(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS scale+48(FP), Y15

hrow:
	VBROADCASTSS (R8), Y14
	XORQ         AX, AX

hcol:
	VMOVUPS (SI)(AX*1), Y0
	VMULPS  Y15, Y0, Y0 // float32(v*scale) - m
	VSUBPS  Y14, Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     hcol
	ADDQ    DX, SI
	ADDQ    DX, DI
	ADDQ    $4, R8
	DECQ    BX
	JNZ     hrow
	VZEROUPPER
	RET

// func rowInvSumAVX(inv *float64, e *float32, groups, d int)
TEXT ·rowInvSumAVX(SB), NOSPLIT, $0-32
	MOVQ         inv+0(FP), DI
	MOVQ         e+8(FP), SI
	MOVQ         groups+16(FP), BX
	MOVQ         d+24(FP), R12
	MOVQ         R12, DX
	SHLQ         $2, DX
	VBROADCASTSD rowsOne64<>(SB), Y13

ugroup:
	MOVQ   SI, R8
	ROW3(SI, DX, R9)
	MOVQ   R12, CX
	VXORPD Y0, Y0, Y0

ucol:
	GATHER4(R8, R9, DX, X1)
	VCVTPS2PD X1, Y1
	VADDPD    Y1, Y0, Y0 // sum += float64(e)
	ADDQ      $4, R8
	ADDQ      $4, R9
	DECQ      CX
	JNZ       ucol
	VDIVPD    Y0, Y13, Y0 // 1 / sum
	VMOVUPD   Y0, (DI)
	ADDQ      $32, DI
	LEAQ      (SI)(DX*4), SI
	DECQ      BX
	JNZ       ugroup
	VZEROUPPER
	RET

// func scaleRowsAVX(e *float32, inv *float64, rows, d, cols int)
TEXT ·scaleRowsAVX(SB), NOSPLIT, $0-40
	MOVQ e+0(FP), SI
	MOVQ inv+8(FP), R8
	MOVQ rows+16(FP), BX
	MOVQ d+24(FP), DX
	SHLQ $2, DX
	MOVQ cols+32(FP), CX
	SHLQ $2, CX

crow:
	VBROADCASTSD (R8), Y15
	XORQ         AX, AX

ccol:
	VCVTPS2PD  (SI)(AX*1), Y0
	VMULPD     Y15, Y0, Y0 // float32(float64(e) * inv)
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (SI)(AX*1)
	ADDQ       $16, AX
	CMPQ       AX, CX
	JLT        ccol
	ADDQ       DX, SI
	ADDQ       $8, R8
	DECQ       BX
	JNZ        crow
	VZEROUPPER
	RET

// func rowDotAVX(dot *float64, grad, probs *float32, groups, d int)
TEXT ·rowDotAVX(SB), NOSPLIT, $0-40
	MOVQ dot+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ probs+16(FP), R13
	MOVQ groups+24(FP), BX
	MOVQ d+32(FP), R12
	MOVQ R12, DX
	SHLQ $2, DX

tgroup:
	MOVQ   SI, R8
	ROW3(SI, DX, R9)
	MOVQ   R13, R10
	ROW3(R13, DX, R11)
	MOVQ   R12, CX
	VXORPD Y0, Y0, Y0

tcol:
	GATHER4(R8, R9, DX, X1)
	VCVTPS2PD X1, Y1
	GATHER4(R10, R11, DX, X2)
	VCVTPS2PD X2, Y2
	VMULPD    Y2, Y1, Y1 // dot += float64(float64(g) * float64(p))
	VADDPD    Y1, Y0, Y0
	ADDQ      $4, R8
	ADDQ      $4, R9
	ADDQ      $4, R10
	ADDQ      $4, R11
	DECQ      CX
	JNZ       tcol
	VMOVUPD   Y0, (DI)
	ADDQ      $32, DI
	LEAQ      (SI)(DX*4), SI
	LEAQ      (R13)(DX*4), R13
	DECQ      BX
	JNZ       tgroup
	VZEROUPPER
	RET

// func softmaxBackwardAVX(dx, probs, grad *float32, dot *float64, rows, d, cols int, scale float32)
TEXT ·softmaxBackwardAVX(SB), NOSPLIT, $0-60
	MOVQ         dx+0(FP), DI
	MOVQ         probs+8(FP), SI
	MOVQ         grad+16(FP), R8
	MOVQ         dot+24(FP), R9
	MOVQ         rows+32(FP), BX
	MOVQ         d+40(FP), DX
	SHLQ         $2, DX
	MOVQ         cols+48(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS scale+56(FP), X15

brow:
	VBROADCASTSD (R9), Y14
	XORQ         AX, AX

bcol:
	VCVTPS2PD  (SI)(AX*1), Y0
	VCVTPS2PD  (R8)(AX*1), Y1
	VSUBPD     Y14, Y1, Y1 // float64(g) - dot
	VMULPD     Y0, Y1, Y0  // float64(p) * (...)
	VCVTPD2PSY Y0, X0
	VMULPS     X15, X0, X0 // float32(... * scale)
	VMOVUPS    X0, (DI)(AX*1)
	ADDQ       $16, AX
	CMPQ       AX, CX
	JLT        bcol
	ADDQ       DX, DI
	ADDQ       DX, SI
	ADDQ       DX, R8
	ADDQ       $8, R9
	DECQ       BX
	JNZ        brow
	VZEROUPPER
	RET

// func geluArgAVX(u, x *float32, n int, a, c float32)
TEXT ·geluArgAVX(SB), NOSPLIT, $0-32
	MOVQ         u+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS a+24(FP), Y14
	VBROADCASTSS c+28(FP), Y15
	XORQ         AX, AX

garg:
	VMOVUPS (SI)(AX*1), Y0
	VMULPS  Y0, Y0, Y1  // v3 = float32(float32(v*v) * v)
	VMULPS  Y0, Y1, Y1
	VMULPS  Y14, Y1, Y1 // float32(c * (v + float32(a*v3)))
	VADDPS  Y0, Y1, Y1
	VMULPS  Y15, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     garg
	VZEROUPPER
	RET

// func geluOutAVX(out, x, th *float32, n int)
TEXT ·geluOutAVX(SB), NOSPLIT, $0-32
	MOVQ         out+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         th+16(FP), R8
	MOVQ         n+24(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS rowsHalf32<>(SB), Y14
	VBROADCASTSS rowsOne32<>(SB), Y15
	XORQ         AX, AX

gout:
	VMOVUPS (SI)(AX*1), Y0 // float32(float32(0.5*v) * (1 + th))
	VMULPS  Y14, Y0, Y0
	VMOVUPS (R8)(AX*1), Y1
	VADDPS  Y15, Y1, Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     gout
	VZEROUPPER
	RET

// func geluBackwardAVX(dx, grad, x, th *float32, n int, k3a, k05c float32)
//
// Y12 holds 0.5, Y13 1, Y14 3·geluA and Y15 0.5·geluC, the constants the
// scalar loop's expressions fold.
TEXT ·geluBackwardAVX(SB), NOSPLIT, $0-48
	MOVQ         dx+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         x+16(FP), R8
	MOVQ         th+24(FP), R9
	MOVQ         n+32(FP), CX
	SHLQ         $2, CX
	VBROADCASTSS k3a+40(FP), Y14
	VBROADCASTSS k05c+44(FP), Y15
	VBROADCASTSS rowsHalf32<>(SB), Y12
	VBROADCASTSS rowsOne32<>(SB), Y13
	XORQ         AX, AX

gback:
	VMOVUPS (R8)(AX*1), Y0 // v
	VMOVUPS (R9)(AX*1), Y1 // t
	VMULPS  Y1, Y1, Y2     // w = float32(v * (1 - float32(t*t)))
	VSUBPS  Y2, Y13, Y2
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y2, Y3     // w += float32(3*geluA * float32(float32(w*v)*v))
	VMULPS  Y3, Y0, Y3
	VMULPS  Y14, Y3, Y3
	VADDPS  Y2, Y3, Y2
	VADDPS  Y13, Y1, Y4    // float32(0.5*(1+t))
	VMULPS  Y12, Y4, Y4
	VMULPS  Y15, Y2, Y5    // float32(0.5*geluC*w)
	VADDPS  Y4, Y5, Y4
	VMULPS  (SI)(AX*1), Y4, Y4 // float32(g * (...))
	VMOVUPS Y4, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     gback
	VZEROUPPER
	RET

// func addRowBiasAVX(x, bias *float32, rows, d, cols int)
TEXT ·addRowBiasAVX(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ bias+8(FP), R8
	MOVQ rows+16(FP), BX
	MOVQ d+24(FP), DX
	SHLQ $2, DX
	MOVQ cols+32(FP), CX
	SHLQ $2, CX

irow:
	XORQ AX, AX

icol:
	VMOVUPS (DI)(AX*1), Y0
	VADDPS  (R8)(AX*1), Y0, Y0 // x + bias
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     icol
	ADDQ    DX, DI
	DECQ    BX
	JNZ     irow
	VZEROUPPER
	RET

// func addColumnSumsAVX(dst, x *float32, rows, d, cols int)
//
// Row by row, as the scalar loop: each column's sum lives in dst, one
// lane per column.
TEXT ·addColumnSumsAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ rows+16(FP), BX
	MOVQ d+24(FP), DX
	SHLQ $2, DX
	MOVQ cols+32(FP), CX
	SHLQ $2, CX

orow:
	XORQ AX, AX

ocol:
	VMOVUPS (SI)(AX*1), Y0
	VADDPS  (DI)(AX*1), Y0, Y0 // dst += x
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     ocol
	ADDQ    DX, SI
	DECQ    BX
	JNZ     orow
	VZEROUPPER
	RET

// func mseAVX(s *float64, grad, pred, target *float32, n int, fn float64)
//
// Y0 the four partial sums, Y15 n. 2·d is d + d, exact as the product is.
TEXT ·mseAVX(SB), NOSPLIT, $0-48
	MOVQ         s+0(FP), DI
	MOVQ         grad+8(FP), R8
	MOVQ         pred+16(FP), SI
	MOVQ         target+24(FP), R9
	MOVQ         n+32(FP), CX
	SHLQ         $2, CX
	VBROADCASTSD fn+40(FP), Y15
	VMOVUPD      (DI), Y0
	XORQ         AX, AX

mse:
	VCVTPS2PD  (SI)(AX*1), Y1
	VCVTPS2PD  (R9)(AX*1), Y2
	VSUBPD     Y2, Y1, Y1  // d = float64(p) - float64(t)
	VMULPD     Y1, Y1, Y2
	VADDPD     Y2, Y0, Y0  // s[j&3] += float64(d*d)
	VADDPD     Y1, Y1, Y1  // float32(2*d / n)
	VDIVPD     Y15, Y1, Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (R8)(AX*1)
	ADDQ       $16, AX
	CMPQ       AX, CX
	JLT        mse
	VMOVUPD    Y0, (DI)
	VZEROUPPER
	RET
