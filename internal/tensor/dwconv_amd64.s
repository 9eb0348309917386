// AVX lanes for the stride-1 depthwise convolution (see dwconv.go): one
// call computes one plane, the output rows of the forward pass or the
// input rows of the input gradient, eight columns at a time.
//
// Each vector lane owns one column — an output column forward, an input
// column for the input gradient — and runs the contract's scalar
// sequence for it: a forward output adds its taps in ascending (ki, kj)
// order, a dx pixel in ascending (output row, output column) order,
// which is descending (ki, kj). Every term is one VMULPS and one VADDPS,
// each rounding once; no multiply-add is fused. As in microKernelAVX,
// VMULPS takes the broadcast weight as its first source and VADDPS the
// accumulator, which starts at +0 for every lane.
//
// Borders are masks, not loops. Lane l of the block at column byte offset
// ob reads its tap's float through VMASKMOVPS under the mask at lm+ob+4·t
// (t counts the block's taps in the order above, from 0 to K-1 within a
// kernel row), so a lane whose tap falls in the padding, or past the row
// on either side, reads nothing and cannot fault; the block is stored
// under the mask at sm+ob, which holds the lanes inside the row. The
// masks are two per-call tables (dwLaneMasks in dwconv_amd64.go) of
// all-ones and zero int32 lanes, read unaligned.
//
// A term the contract skips is ANDed to +0 before its add: forward, a
// padding tap (its load gives +0, but +0 times an infinite or NaN weight
// is NaN); for dx, a gradient that is zero of either sign or lies in the
// padding, both caught by one compare with zero after the masked load.
// Adding +0 changes no sum that can occur: a sum starts at +0, and a sum
// of floats that starts at +0 is never −0 under round-to-nearest, so
// s + (+0) is s, NaN and infinities included.
//
// Kernel rows that fall outside the image are clipped per output or
// input row before the block loop, so no mask is needed for them.
//
// Register plan, both kernels: Y0 the block's accumulators, Y1 the load
// mask (then, for dx, the nonzero mask), Y2 the loaded floats, Y3 the
// broadcast weight and then the term, Y4 zero. AX counts a kernel row's
// taps, BX points at the block's floats in the current source row, CX
// counts kernel rows, DX at the current weight, SI at the first source
// row's floats for block 0, DI at the destination row, R8 is ob, R9 the
// first kernel row's weight, R10 the number of kernel rows, R11 a source
// row in bytes, R12 K, R13 the row index and R14 lm+ob.

#include "textflag.h"

// NEQ_UQ: not equal, or unordered, as Go's != (a NaN gradient is not zero).
#define NEQ_UQ $0x04

// func dwForwardAVX(out, x, w *float32, lm, sm *int32, h, width, oh, ow, k, pad int)
//
// R13 is pad - oi: kernel rows [max(0, R13), min(K, h+R13)) land inside
// the image, the first of them on input row ki0 - R13.
TEXT ·dwForwardAVX(SB), NOSPLIT, $0-88
	MOVQ out+0(FP), DI
	MOVQ width+48(FP), R11
	SHLQ $2, R11
	MOVQ k+72(FP), R12
	MOVQ pad+80(FP), R13

frow:
	MOVQ    R13, AX          // ki0 = max(0, pad-oi)
	XORQ    R14, R14
	CMPQ    AX, $0
	CMOVQLT R14, AX
	MOVQ    h+40(FP), R10    // ki1 = min(K, h+pad-oi)
	ADDQ    R13, R10
	CMPQ    R10, R12
	CMOVQGT R12, R10
	SUBQ    AX, R10          // rows = ki1 - ki0, ≤ 0 when the row is all padding
	MOVQ    AX, R9           // R9 = w + 4·ki0·K
	IMULQ   R12, R9
	SHLQ    $2, R9
	ADDQ    w+16(FP), R9
	SUBQ    R13, AX          // SI = x + (ki0-pad+oi)·row - 4·pad
	IMULQ   R11, AX
	ADDQ    x+8(FP), AX
	MOVQ    pad+80(FP), SI
	SHLQ    $2, SI
	NEGQ    SI
	ADDQ    AX, SI
	XORQ    R8, R8

fblock:
	VXORPS Y0, Y0, Y0
	MOVQ   lm+24(FP), R14
	ADDQ   R8, R14
	LEAQ   (SI)(R8*1), BX
	MOVQ   R9, DX
	MOVQ   R10, CX
	TESTQ  CX, CX
	JLE    fstore

fki:
	XORQ AX, AX

fkj:
	VMOVUPS      (R14)(AX*4), Y1
	VMASKMOVPS   (BX)(AX*4), Y1, Y2
	VBROADCASTSS (DX), Y3
	VMULPS       Y2, Y3, Y3
	VANDPS       Y1, Y3, Y3
	VADDPS       Y3, Y0, Y0
	ADDQ         $4, DX
	INCQ         AX
	CMPQ         AX, R12
	JLT          fkj
	ADDQ         R11, BX
	DECQ         CX
	JNZ          fki

fstore:
	MOVQ       sm+32(FP), AX
	VMOVUPS    (AX)(R8*1), Y1
	VMASKMOVPS Y0, Y1, (DI)(R8*1)
	ADDQ       $32, R8
	MOVQ       ow+64(FP), AX
	SHLQ       $2, AX
	CMPQ       R8, AX
	JLT        fblock

	LEAQ (DI)(AX*1), DI      // next output row
	DECQ R13
	MOVQ pad+80(FP), AX
	SUBQ oh+56(FP), AX
	CMPQ R13, AX             // oi = pad - R13 < oh
	JGT  frow
	VZEROUPPER
	RET

// func dwInputGradAVX(dx, grad, w *float32, lm, sm *int32, h, width, oh, ow, k, pad int)
//
// R13 is ih + pad: output rows oi = R13 - ki with ki in
// [max(0, R13-oh+1), min(K-1, R13)] reach input row ih, and they are
// taken in ascending oi, from ki = min(K-1, R13) down. A block's grad
// floats for tap t of a kernel row start 4·(pad-K+1+t) bytes after its
// output column, and the weights run backwards through memory.
TEXT ·dwInputGradAVX(SB), NOSPLIT, $0-88
	MOVQ dx+0(FP), DI
	MOVQ ow+64(FP), R11
	SHLQ $2, R11
	MOVQ k+72(FP), R12
	MOVQ pad+80(FP), R13
	VXORPS Y4, Y4, Y4

brow:
	MOVQ    R12, AX          // kiHi = min(K-1, ih+pad)
	DECQ    AX
	CMPQ    R13, AX
	CMOVQLT R13, AX
	MOVQ    R13, R10         // kiLo = max(0, ih+pad-oh+1)
	SUBQ    oh+56(FP), R10
	INCQ    R10
	XORQ    R14, R14
	CMPQ    R10, $0
	CMOVQLT R14, R10
	NEGQ    R10              // rows = kiHi - kiLo + 1
	LEAQ    1(AX)(R10*1), R10
	MOVQ    AX, R9           // R9 = w + 4·(kiHi·K + K-1), the row's last tap
	IMULQ   R12, R9
	ADDQ    R12, R9
	DECQ    R9
	SHLQ    $2, R9
	ADDQ    w+16(FP), R9
	NEGQ    AX               // SI = grad + (ih+pad-kiHi)·orow + 4·(pad-K+1)
	ADDQ    R13, AX
	IMULQ   R11, AX
	ADDQ    grad+8(FP), AX
	MOVQ    pad+80(FP), SI
	SUBQ    R12, SI
	INCQ    SI
	LEAQ    (AX)(SI*4), SI
	XORQ    R8, R8

bblock:
	VXORPS Y0, Y0, Y0
	MOVQ   lm+24(FP), R14
	ADDQ   R8, R14
	LEAQ   (SI)(R8*1), BX
	MOVQ   R9, DX
	MOVQ   R10, CX
	TESTQ  CX, CX
	JLE    bstore

bki:
	XORQ AX, AX

bkj:
	VMOVUPS      (R14)(AX*4), Y1
	VMASKMOVPS   (BX)(AX*4), Y1, Y2
	VCMPPS       NEQ_UQ, Y4, Y2, Y1
	VBROADCASTSS (DX), Y3
	VMULPS       Y2, Y3, Y3
	VANDPS       Y1, Y3, Y3
	VADDPS       Y3, Y0, Y0
	SUBQ         $4, DX
	INCQ         AX
	CMPQ         AX, R12
	JLT          bkj
	ADDQ         R11, BX
	DECQ         CX
	JNZ          bki

bstore:
	MOVQ       sm+32(FP), AX
	VMOVUPS    (AX)(R8*1), Y1
	VMASKMOVPS Y0, Y1, (DI)(R8*1)
	ADDQ       $32, R8
	MOVQ       width+48(FP), AX
	SHLQ       $2, AX
	CMPQ       R8, AX
	JLT        bblock

	LEAQ (DI)(AX*1), DI      // next input row
	INCQ R13
	MOVQ h+40(FP), AX
	ADDQ pad+80(FP), AX
	CMPQ R13, AX             // ih = R13 - pad < h
	JLT  brow
	VZEROUPPER
	RET
