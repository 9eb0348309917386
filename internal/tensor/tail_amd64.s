// AVX lanes for ChannelTailInto and ReLUGateInto (see tail.go).
//
// Each vector lane runs channelTailGeneric's or reluGateGeneric's
// sequence for one element: every Go operation is one instruction, with
// the Go expression's left operand as the instruction's first source and
// no fused multiply-add, so each lane's result is bit-identical to the
// scalar loop's. The BatchNorm affine widens the eight floats to two
// halves of four float64 lanes (VCVTPS2PD), runs VSUBPD, VMULPD, VMULPD
// and VADDPD on each, and narrows them back (VCVTPD2PS), rounding as the
// Go conversions do. The ReLU is a compare and a VANDNPS, not a VMAXPS:
// the select keeps a NaN where a maximum would return the zero.

#include "textflag.h"

// The mode bits of channelTailAVX, tailBias, tailNorm and tailReLU in
// tail_amd64.go.
#define BIAS $1
#define NORM $2
#define RELU $4

// VCMPPS predicates, quiet like Go's comparisons; all false on NaN.
#define LE_OQ $0x12
#define GT_OQ $0x1e

// func channelTailAVX(dst, src *float32, n int, bias float32, mean, invStd, gamma, beta float64, mode int)
//
// Y8 holds the bias, Y9–Y12 mean, invStd, gamma and beta, Y13 zero; AX is
// the byte offset of the current group, CX its end.
TEXT ·channelTailAVX(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	SHLQ         $2, CX
	MOVQ         mode+64(FP), DX
	VBROADCASTSS bias+24(FP), Y8
	VBROADCASTSD mean+32(FP), Y9
	VBROADCASTSD invStd+40(FP), Y10
	VBROADCASTSD gamma+48(FP), Y11
	VBROADCASTSD beta+56(FP), Y12
	VXORPS       Y13, Y13, Y13
	XORQ         AX, AX

tloop:
	VMOVUPS (SI)(AX*1), Y0
	TESTQ   BIAS, DX
	JZ      tnorm
	VADDPS  Y8, Y0, Y0     // v + bias

tnorm:
	TESTQ        NORM, DX
	JZ           trelu
	VCVTPS2PD    X0, Y1    // float64(v), lanes 0–3
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD    X2, Y2    // lanes 4–7
	VSUBPD       Y9, Y1, Y1  // xh = (float64(v) - mean) * invStd
	VSUBPD       Y9, Y2, Y2
	VMULPD       Y10, Y1, Y1
	VMULPD       Y10, Y2, Y2
	VMULPD       Y11, Y1, Y1 // float32(float64(xh*gamma) + beta)
	VMULPD       Y11, Y2, Y2
	VADDPD       Y12, Y1, Y1
	VADDPD       Y12, Y2, Y2
	VCVTPD2PSY   Y1, X1
	VCVTPD2PSY   Y2, X2
	VINSERTF128  $1, X2, Y1, Y0

trelu:
	TESTQ   RELU, DX
	JZ      tstore
	VCMPPS  LE_OQ, Y13, Y0, Y1 // v <= 0
	VANDNPS Y0, Y1, Y0         // those lanes to +0

tstore:
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     tloop
	VZEROUPPER
	RET

// func reluGateAVX(dst, grad, out *float32, n int)
TEXT ·reluGateAVX(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   grad+8(FP), SI
	MOVQ   out+16(FP), R8
	MOVQ   n+24(FP), CX
	SHLQ   $2, CX
	VXORPS Y13, Y13, Y13
	XORQ   AX, AX

gloop:
	VMOVUPS (R8)(AX*1), Y1
	VCMPPS  GT_OQ, Y13, Y1, Y1 // out > 0
	VANDPS  (SI)(AX*1), Y1, Y0 // grad there, +0 elsewhere
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     gloop
	VZEROUPPER
	RET
