// Vector lanes for the stride-1 depthwise convolution (see dwconv.go):
// the forward pass and the input gradient in AVX lanes, one plane per
// call, eight columns at a time; and the weight gradient of a 3×3 kernel
// in AVX-512 or AVX lanes, one image's group of channels per call, a
// lane per tap (described with its kernels below).
//
// In the forward and input-gradient kernels each vector lane owns one
// column — an output column forward, an input
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
// Register plan, forward and input gradient: Y0 the block's accumulators, Y1 the load
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

// The weight gradient of a 3×3 kernel: one call adds one image's terms
// for a group of n consecutive channels (1 ≤ n ≤ 4 under AVX-512, 3
// under AVX) to their nine sums each, over every output row and column
// in ascending order. Lane t of a channel's sums is tap t = 3·ki + kj:
// one ZMM under the opmask 0x1ff (K1) for AVX-512; for AVX a YMM for
// taps 0–7 and the low lane of an XMM for tap 8. So each lane runs its
// tap's chain in the contract's order, and the channels of the group,
// independent chains in registers of their own, hide one another's add
// latency. Every term is one VMULPS, the broadcast gradient its first
// source, and one VADDPS, the sum its first source; no multiply-add is
// fused.
//
// The taps of output pixel (oi, oj) come from three masked loads, one per
// kernel row ki, at x + 4·((oi-pad+ki)·width + oj-pad - 3·ki), so lane
// 3·ki + kj reads the float of its tap (AVX reads tap 8 on its own). The
// masks are lane t of rm[9·oi] (kernel row t/3 inside the image) and of
// cm[9·oj] (kernel column t%3 inside it), two per-call tables
// (dwTapMasks in dwconv_amd64.go): a tap in the padding reads nothing,
// and no load leaves x; the sums are loaded and stored whole, nine
// floats a channel, so none leaves dW either.
//
// The sums are pre-seeded from dW and can hold −0, so a term the contract
// skips — a tap in the padding, a gradient that is zero of either sign —
// is not added at all, rather than ANDed to +0 (−0 + +0 is +0): the add is
// masked (an opmask under AVX-512, VBLENDVPS of the sum and the old value
// under AVX), and a NaN gradient is added as Go's gv != 0 says.
//
// These kernels come first in the file because their macros name
// arguments, and go vet checks a line naming one against the TEXT block
// above it, which a macro defined here has none of; both kernels share
// the frame the macros assume.
//
// Register plan, both kernels: SI, DI and R8 point at kernel rows 0, 1
// and 2 of channel 0's current pixel, less 0, 12 and 24 bytes; R9 is an
// input plane in bytes and R10 three; R11 points at channel 0's gradient,
// R12 is an output plane in bytes and R13 three; R14 points at the
// pixel's column masks, BX at their end, R15 at the row's masks; DX
// steps SI, DI and R8 from one row's end to the next row's start; CX is
// n. AVX-512: Z0–Z3 the four channels' sums, Z4 zero, Z5 the row's
// masks (Z6–Z8 their kernel rows 0, 1, 2 alone), Z9 the pixel's column
// masks, Z10–Z17 the channels' gradients and taps; K1 the nine taps, K2–K4 a pixel's loads by kernel row, K5 its
// taps inside the image, K6 and K7 those that add. AVX: Y0–Y2 taps 0–7
// of the three channels' sums and X3–X5 tap 8, Y6 zero, Y7 the pixel's
// taps 0–7 inside the image, Y8–Y10 its loads by kernel row, X11 tap 8's
// load; Y12–Y15 a channel's taps, gradient, compare and add mask.

// dwWeightSetup points the registers of the plan above at output pixel
// (0, 0).
#define dwWeightSetup \
	MOVQ   h+48(FP), R9;      \
	IMULQ  width+56(FP), R9;  \
	SHLQ   $2, R9;            \
	LEAQ   (R9)(R9*2), R10;   \
	MOVQ   oh+64(FP), R12;    \
	IMULQ  ow+72(FP), R12;    \
	SHLQ   $2, R12;           \
	LEAQ   (R12)(R12*2), R13; \
	MOVQ   width+56(FP), AX;  \
	SHLQ   $2, AX;            \
	MOVQ   ow+72(FP), DX;     \
	SHLQ   $2, DX;            \
	NEGQ   DX;                \
	ADDQ   AX, DX;            \
	LEAQ   4(AX), BX;         \
	IMULQ  pad+80(FP), BX;    \
	MOVQ   x+16(FP), SI;      \
	SUBQ   BX, SI;            \
	LEAQ   -12(SI)(AX*1), DI; \
	LEAQ   -24(SI)(AX*2), R8; \
	MOVQ   grad+8(FP), R11;   \
	MOVQ   rm+24(FP), R15;    \
	MOVQ   ow+72(FP), BX;     \
	IMUL3Q $36, BX, BX;       \
	ADDQ   cm+32(FP), BX

// dwWeightStep moves to the next output pixel, and from a row's last
// pixel to the next row, looping to col or row; it falls through after
// the last row.
#define dwWeightStep(col, row) \
	ADDQ   $4, SI;          \
	ADDQ   $4, DI;          \
	ADDQ   $4, R8;          \
	ADDQ   $4, R11;         \
	ADDQ   $36, R14;        \
	CMPQ   R14, BX;         \
	JLT    col;             \
	ADDQ   DX, SI;          \
	ADDQ   DX, DI;          \
	ADDQ   DX, R8;          \
	ADDQ   $36, R15;        \
	MOVQ   oh+64(FP), AX;   \
	IMUL3Q $36, AX, AX;     \
	ADDQ   rm+24(FP), AX;   \
	CMPQ   R15, AX;         \
	JLT    row

// zsums moves channel k-1's nine sums between src and dst under K1,
// unless the group has fewer than k channels: then the moves end at
// label. Loaded, lanes 9–15 keep what they held; no add or store
// reaches them.
#define zsums(k, label, src, dst) \
	CMPQ    CX, $k; \
	JLT     label;  \
	VMOVUPS src, K1, dst

// ztaps adds one channel's terms at the current pixel: the gradient at g
// broadcast to zg, the taps loaded by kernel row from x0, x1 and x2 into
// zx, and zx = gv·x added to the sums acc in the lanes of K5 where
// gv != 0 (kadd).
#define ztaps(g, x0, x1, x2, zg, zx, kadd, acc) \
	VBROADCASTSS g, zg;                      \
	VCMPPS       NEQ_UQ, Z4, zg, K5, kadd;   \
	VMOVUPS.Z    x0, K2, zx;                 \
	VMOVUPS      x1, K3, zx;                 \
	VMOVUPS      x2, K4, zx;                 \
	VMULPS       zx, zg, zx;                 \
	VADDPS       zx, acc, kadd, acc

// func dwWeightAVX512(dw, grad, x *float32, rm, cm *int32, n, h, width, oh, ow, pad int)
TEXT ·dwWeightAVX512(SB), NOSPLIT, $0-88
	MOVQ      n+40(FP), CX
	MOVL      $0x1ff, AX
	KMOVW     AX, K1
	VPXORD    Z4, Z4, Z4
	MOVQ      dw+0(FP), AX
	VMOVUPS.Z (AX), K1, Z0
	zsums(2, zsetup, 36(AX), Z1)
	zsums(3, zsetup, 72(AX), Z2)
	zsums(4, zsetup, 108(AX), Z3)

zsetup:
	dwWeightSetup

zrow:
	VMOVUPS.Z (R15), K1, Z5
	MOVL      $0x007, AX
	KMOVW     AX, K2
	VMOVUPS.Z Z5, K2, Z6
	MOVL      $0x038, AX
	KMOVW     AX, K2
	VMOVUPS.Z Z5, K2, Z7
	MOVL      $0x1c0, AX
	KMOVW     AX, K2
	VMOVUPS.Z Z5, K2, Z8
	MOVQ      cm+32(FP), R14

zcol:
	VMOVUPS.Z (R14), K1, Z9
	VPTESTMD  Z6, Z9, K2
	VPTESTMD  Z7, Z9, K3
	VPTESTMD  Z8, Z9, K4
	VPTESTMD  Z5, Z9, K5
	ztaps((R11), (SI), (DI), (R8), Z10, Z11, K6, Z0)
	CMPQ      CX, $2
	JLT       znext
	ztaps((R11)(R12*1), (SI)(R9*1), (DI)(R9*1), (R8)(R9*1), Z12, Z13, K7, Z1)
	CMPQ      CX, $3
	JLT       znext
	ztaps((R11)(R12*2), (SI)(R9*2), (DI)(R9*2), (R8)(R9*2), Z14, Z15, K6, Z2)
	CMPQ      CX, $4
	JLT       znext
	ztaps((R11)(R13*1), (SI)(R10*1), (DI)(R10*1), (R8)(R10*1), Z16, Z17, K7, Z3)

znext:
	dwWeightStep(zcol, zrow)

	MOVQ    dw+0(FP), AX
	VMOVUPS Z0, K1, (AX)
	zsums(2, zdone, Z1, 36(AX))
	zsums(3, zdone, Z2, 72(AX))
	zsums(4, zdone, Z3, 108(AX))

zdone:
	VZEROUPPER
	RET

// ysums moves channel k-1's sums between taps 0–7 at lo and tap 8 at
// hi and the registers y and x, unless the group has fewer than k
// channels: then the moves end at label.
#define ysums(k, label, lo, hi, y, x) \
	CMPQ    CX, $k; \
	JLT     label;  \
	VMOVUPS lo, y;  \
	VMOVSS  hi, x

// ytaps adds one channel's terms at the current pixel: taps 0–7 loaded
// by kernel row from x0, x1 and x2, tap 8 from x8, the gradient at g
// broadcast, and each product gv·x added to the sums acc (taps 0–7) and
// acc8 (tap 8) where the tap is inside the image and gv != 0.
#define ytaps(g, x0, x1, x2, x8, acc, acc8) \
	VMASKMOVPS   x0, Y8, Y12;          \
	VMASKMOVPS   x1, Y9, Y13;          \
	VORPS        Y13, Y12, Y12;        \
	VMASKMOVPS   x2, Y10, Y13;         \
	VORPS        Y13, Y12, Y12;        \
	VBROADCASTSS g, Y13;               \
	VCMPPS       NEQ_UQ, Y6, Y13, Y14; \
	VMULPS       Y12, Y13, Y12;        \
	VADDPS       Y12, acc, Y12;        \
	VANDPS       Y7, Y14, Y15;         \
	VBLENDVPS    Y15, Y12, acc, acc;   \
	VMASKMOVPS   x8, X11, X12;         \
	VMULSS       X12, X13, X12;        \
	VADDSS       X12, acc8, X12;       \
	VANDPS       X11, X14, X15;        \
	VBLENDVPS    X15, X12, acc8, acc8

// func dwWeightAVX(dw, grad, x *float32, rm, cm *int32, n, h, width, oh, ow, pad int)
TEXT ·dwWeightAVX(SB), NOSPLIT, $0-88
	MOVQ    n+40(FP), CX
	VXORPS  Y6, Y6, Y6
	MOVQ    dw+0(FP), AX
	VMOVUPS (AX), Y0
	VMOVSS  32(AX), X3
	ysums(2, ysetup, 36(AX), 68(AX), Y1, X4)
	ysums(3, ysetup, 72(AX), 104(AX), Y2, X5)

ysetup:
	dwWeightSetup

yrow:
	MOVQ cm+32(FP), R14

ycol:
	VMOVUPS  (R14), Y12
	VANDPS   (R15), Y12, Y7
	VBLENDPS $0x07, Y7, Y6, Y8
	VBLENDPS $0x38, Y7, Y6, Y9
	VBLENDPS $0xc0, Y7, Y6, Y10
	VMOVSS   32(R14), X11
	VMOVSS   32(R15), X12
	VANDPS   X12, X11, X11
	ytaps((R11), (SI), (DI), (R8), 32(R8), Y0, X3)
	CMPQ     CX, $2
	JLT      ynext
	ytaps((R11)(R12*1), (SI)(R9*1), (DI)(R9*1), (R8)(R9*1), 32(R8)(R9*1), Y1, X4)
	CMPQ     CX, $3
	JLT      ynext
	ytaps((R11)(R12*2), (SI)(R9*2), (DI)(R9*2), (R8)(R9*2), 32(R8)(R9*2), Y2, X5)

ynext:
	dwWeightStep(ycol, yrow)

	MOVQ    dw+0(FP), AX
	VMOVUPS Y0, (AX)
	VMOVSS  X3, 32(AX)
	ysums(2, ydone, Y1, X4, 36(AX), 68(AX))
	ysums(3, ydone, Y2, X5, 72(AX), 104(AX))

ydone:
	VZEROUPPER
	RET

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
