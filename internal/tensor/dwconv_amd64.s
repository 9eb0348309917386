// Vector lanes for the stride-1 depthwise convolution (see dwconv.go).
//
// On tierAVX512: the forward pass and the input gradient in 16-lane ZMM
// blocks, four rows at a time, one plane per call (dwForwardAVX512,
// dwInputGradAVX512); the weight gradient of a 3×3 kernel a lane per
// channel, one image's group of up to 16 channels per call, from a
// channels-last copy of its input and gradient (dwStageAVX512,
// dwWeightAVX512).
//
// On tierAVX: the forward pass and the input gradient in 8-lane YMM
// blocks, one row at a time (dwForwardAVX, dwInputGradAVX); the 3×3
// weight gradient a lane per tap, one image's group of three channels
// per call (dwWeightAVX).
//
// Every lane runs the contract's scalar sequence for the one sum it
// owns: a forward output adds its taps in ascending (ki, kj) order, a dx
// pixel in ascending (output row, output column) order, which is
// descending (ki, kj), and a dW tap its terms in ascending (row, column)
// order, one image per call, images ascending. Every term is one VMULPS
// and one VADDPS, each rounding once; no multiply-add is fused. Each
// kernel's description below says how it masks the terms the contract
// skips and keeps its loads inside the operands.

#include "textflag.h"

// NEQ_UQ: not equal, or unordered, as Go's != (a NaN gradient is not zero).
#define NEQ_UQ $0x04

// The weight gradient of a 3×3 kernel on tierAVX: one call adds one
// image's terms for a group of n ≤ 3 consecutive channels to their nine
// sums each, over every output row and column in ascending order. Lane t
// of a channel's sums is tap t = 3·ki + kj: a YMM for taps 0–7 and the
// low lane of an XMM for tap 8. So each lane runs its tap's chain in the
// contract's order, and the channels of the group, independent chains in
// registers of their own, hide one another's add latency. Every term is
// one VMULPS, the broadcast gradient its first source, and one VADDPS,
// the sum its first source.
//
// The taps of output pixel (oi, oj) come from three masked loads, one per
// kernel row ki, at x + 4·((oi-pad+ki)·width + oj-pad - 3·ki), so lane
// 3·ki + kj reads the float of its tap (tap 8 is read on its own). The
// masks are lane t of rm[9·oi] (kernel row t/3 inside the image) and of
// cm[9·oj] (kernel column t%3 inside it), two per-call tables
// (dwTapMasks in dwconv_amd64.go): a tap in the padding reads nothing,
// and no load leaves x; the sums are loaded and stored whole, nine
// floats a channel, so none leaves dW either.
//
// The sums are pre-seeded from dW and can hold −0, so a term the contract
// skips — a tap in the padding, a gradient that is zero of either sign —
// is not added at all, rather than ANDed to +0 (−0 + +0 is +0): the add
// is masked, by VBLENDVPS of the sum and the old value, and a NaN
// gradient is added as Go's gv != 0 says.
//
// Its macros come first in the file because they name arguments, and go
// vet checks a line naming one against the TEXT block above it, which a
// macro defined here has none of.
//
// Register plan: SI, DI and R8 point at kernel rows 0, 1 and 2 of
// channel 0's current pixel, less 0, 12 and 24 bytes; R9 is an input
// plane in bytes and R10 three; R11 points at channel 0's gradient, R12
// is an output plane in bytes and R13 three; R14 points at the pixel's
// column masks, BX at their end, R15 at the row's masks; DX steps SI, DI
// and R8 from one row's end to the next row's start; CX is n. Y0–Y2
// taps 0–7 of the three channels' sums and X3–X5 tap 8, Y6 zero, Y7 the
// pixel's taps 0–7 inside the image, Y8–Y10 its loads by kernel row,
// X11 tap 8's load; Y12–Y15 a channel's taps, gradient, compare and add
// mask.

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

// The forward pass and the input gradient of a 3×3 kernel on
// tierAVX512. A call covers one plane, in tiles of four destination rows
// (output rows forward, input rows for dx) by 16 columns, one ZMM
// accumulator per row of the tile: lane l of row r's owns column 16b+l
// of destination row R15+r. The four sums are independent chains, so
// their adds overlap instead of waiting on one another.
//
// The tile's rows read six source rows j = 0…5 between them (input rows
// R15-pad+j forward, output rows R15+pad-2+j for dx), and row r reads
// row j through kernel row a = j-r of the kernel, forward, or of the
// kernel turned by 180°, for dx (whose taps run in descending (ki, kj)).
// So the tile walks j ascending, which is each row's kernel rows in the
// contract's order, loads each source row's three taps once — three
// vectors, from columns 16b-pad+t forward and 16b+pad-2+t for dx, t =
// 0, 1, 2 — and adds their terms to every row that reads them, taps in
// order. The nine weights sit in Z4–Z12 for the whole call, Z(4+3a+t)
// weight (a, t) of the kernel as the tile reads it.
//
// Borders are opmasks. A source row outside the plane is skipped whole.
// Inside one, the taps load under K1–K3, lane l of K(1+t) set where the
// float it reads lies inside its row (VMOVUPS.Z: no lane reads outside
// its row, and a masked lane cannot fault), and a term adds under the
// same mask (a merge-masked VADDPS), so a padding tap adds nothing; for
// dx that mask is narrowed to K5–K7 by VCMPPS NEQ_UQ of the gradient
// against zero, so an exactly-zero gradient of either sign adds nothing
// either, and a NaN one is added, as Go's gv != 0 says. The block's
// store mask, K4, holds the lanes inside the destination row; the masks
// come from a per-call table (dwBlockMasks in dwconv_amd64.go), four per
// block. A tile's rows past the plane's last are computed and never
// stored.
//
// Register plan, both kernels: Z0–Z3 the tile's four accumulators, Z4–Z12
// the weights, Z13–Z15 a source row's three taps, Z16–Z24 terms, Z25
// zero (dx). AX is the tile's first source row, BX points at the block's
// masks, CX at the tile's source row 0 where block 0's taps start, DX is
// a source row index, SI points at source row 0 of the block's taps and
// R14 at row 3, DI at the tile's destination row 0, R8 is 64·b, R9 a
// destination row in bytes, R11 the number of source rows, R12 of
// destination rows, R13 a source row in bytes, R15 the tile's first
// destination row.

// zweights broadcasts the floats at offsets i0…i8 of w into Z4…Z12.
#define zweights(w, i0, i1, i2, i3, i4, i5, i6, i7, i8) \
	VBROADCASTSS i0(w), Z4;  \
	VBROADCASTSS i1(w), Z5;  \
	VBROADCASTSS i2(w), Z6;  \
	VBROADCASTSS i3(w), Z7;  \
	VBROADCASTSS i4(w), Z8;  \
	VBROADCASTSS i5(w), Z9;  \
	VBROADCASTSS i6(w), Z10; \
	VBROADCASTSS i7(w), Z11; \
	VBROADCASTSS i8(w), Z12

// zterms adds the terms of the source row in Z13–Z15 to the accumulator
// acc through kernel row (wa, wb, wc), the taps' masks k0–k2, temporaries
// t0–t2: each tap's float (first source, as Go's x·w and g·w) times its
// weight, added under the tap's mask.
#define zterms(acc, wa, wb, wc, k0, k1, k2, t0, t1, t2) \
	VMULPS wa, Z13, t0;     \
	VMULPS wb, Z14, t1;     \
	VMULPS wc, Z15, t2;     \
	VADDPS t0, acc, k0, acc; \
	VADDPS t1, acc, k1, acc; \
	VADDPS t2, acc, k2, acc

// zrow0 … zrow5 add source row j = 0 … 5 to the rows of the tile that
// read it, under masks k0–k2.
#define zrow0(k0, k1, k2) \
	zterms(Z0, Z4, Z5, Z6, k0, k1, k2, Z16, Z17, Z18)

#define zrow1(k0, k1, k2) \
	zterms(Z0, Z7, Z8, Z9, k0, k1, k2, Z16, Z17, Z18); \
	zterms(Z1, Z4, Z5, Z6, k0, k1, k2, Z19, Z20, Z21)

#define zrow2(k0, k1, k2) \
	zterms(Z0, Z10, Z11, Z12, k0, k1, k2, Z16, Z17, Z18); \
	zterms(Z1, Z7, Z8, Z9, k0, k1, k2, Z19, Z20, Z21);    \
	zterms(Z2, Z4, Z5, Z6, k0, k1, k2, Z22, Z23, Z24)

#define zrow3(k0, k1, k2) \
	zterms(Z1, Z10, Z11, Z12, k0, k1, k2, Z16, Z17, Z18); \
	zterms(Z2, Z7, Z8, Z9, k0, k1, k2, Z19, Z20, Z21);    \
	zterms(Z3, Z4, Z5, Z6, k0, k1, k2, Z22, Z23, Z24)

#define zrow4(k0, k1, k2) \
	zterms(Z2, Z10, Z11, Z12, k0, k1, k2, Z16, Z17, Z18); \
	zterms(Z3, Z7, Z8, Z9, k0, k1, k2, Z19, Z20, Z21)

#define zrow5(k0, k1, k2) \
	zterms(Z3, Z10, Z11, Z12, k0, k1, k2, Z16, Z17, Z18)

// zload loads a source row's three taps from p, p+4 and p+8 under K1–K3;
// zloadz does too and sets K5–K7 to the lanes whose gradient is not zero.
#define zload(p0, p1, p2) \
	VMOVUPS.Z p0, K1, Z13; \
	VMOVUPS.Z p1, K2, Z14; \
	VMOVUPS.Z p2, K3, Z15

#define zloadz(p0, p1, p2) \
	zload(p0, p1, p2);            \
	VCMPPS NEQ_UQ, Z25, Z13, K1, K5; \
	VCMPPS NEQ_UQ, Z25, Z14, K2, K6; \
	VCMPPS NEQ_UQ, Z25, Z15, K3, K7

// zskip jumps to label unless source row j, DX = AX + j, lies inside
// the plane's R11 rows.
#define zskip(j, label) \
	LEAQ j(AX), DX; \
	CMPQ DX, R11;   \
	JCC  label

// ztile sets up a tile's block at R8: zeroes the accumulators, loads the
// block's masks into K1–K4 and points SI and R14 at source rows 0 and 3.
// SI starts from base, the tile's source row 0 at column 0 of the block
// less the taps' offset.
#define ztile(base) \
	VPXORD Z0, Z0, Z0;        \
	VPXORD Z1, Z1, Z1;        \
	VPXORD Z2, Z2, Z2;        \
	VPXORD Z3, Z3, Z3;        \
	KMOVW  (BX), K1;          \
	KMOVW  2(BX), K2;         \
	KMOVW  4(BX), K3;         \
	KMOVW  6(BX), K4;         \
	LEAQ   (base)(R8*1), SI;  \
	LEAQ   (SI)(R13*2), R14;  \
	ADDQ   R13, R14

// zstore stores the tile's rows that lie in the plane, at most four,
// under K4, then steps to the next block or tile, looping to block or
// tile; it falls through after the last tile.
#define zstore(block, tile) \
	MOVQ    R12, DX;              \
	SUBQ    R15, DX;              \
	VMOVUPS Z0, K4, (DI)(R8*1);   \
	LEAQ    (DI)(R9*1), SI;       \
	CMPQ    DX, $2;               \
	JLT     3(PC);                \
	VMOVUPS Z1, K4, (SI)(R8*1);   \
	ADDQ    R9, SI;               \
	CMPQ    DX, $3;               \
	JLT     3(PC);                \
	VMOVUPS Z2, K4, (SI)(R8*1);   \
	ADDQ    R9, SI;               \
	CMPQ    DX, $4;               \
	JLT     2(PC);                \
	VMOVUPS Z3, K4, (SI)(R8*1);   \
	ADDQ    $8, BX;               \
	ADDQ    $64, R8;              \
	CMPQ    R8, R9;               \
	JLT     block;                \
	LEAQ    (DI)(R9*4), DI;       \
	ADDQ    $4, R15;              \
	CMPQ    R15, R12;             \
	JLT     tile

// func dwForwardAVX512(out, x, w *float32, m *uint16, h, width, oh, ow, pad int)
TEXT ·dwForwardAVX512(SB), NOSPLIT, $0-72
	MOVQ w+16(FP), AX
	zweights(AX, 0, 4, 8, 12, 16, 20, 24, 28, 32)
	MOVQ width+40(FP), R13
	SHLQ $2, R13
	MOVQ ow+56(FP), R9
	SHLQ $2, R9
	MOVQ h+32(FP), R11
	MOVQ oh+48(FP), R12
	MOVQ out+0(FP), DI
	XORQ R15, R15

ftile:
	MOVQ  R15, AX            // AX = R15 - pad
	SUBQ  pad+64(FP), AX
	MOVQ  AX, CX             // CX = x + AX·row - 4·pad
	IMULQ R13, CX
	ADDQ  x+8(FP), CX
	MOVQ  pad+64(FP), DX
	SHLQ  $2, DX
	SUBQ  DX, CX
	MOVQ  m+24(FP), BX
	XORQ  R8, R8

fblock:
	ztile(CX)
	zskip(0, f1)
	zload((SI), 4(SI), 8(SI))
	zrow0(K1, K2, K3)

f1:
	zskip(1, f2)
	zload((SI)(R13*1), 4(SI)(R13*1), 8(SI)(R13*1))
	zrow1(K1, K2, K3)

f2:
	zskip(2, f3)
	zload((SI)(R13*2), 4(SI)(R13*2), 8(SI)(R13*2))
	zrow2(K1, K2, K3)

f3:
	zskip(3, f4)
	zload((R14), 4(R14), 8(R14))
	zrow3(K1, K2, K3)

f4:
	zskip(4, f5)
	zload((R14)(R13*1), 4(R14)(R13*1), 8(R14)(R13*1))
	zrow4(K1, K2, K3)

f5:
	zskip(5, f6)
	zload((R14)(R13*2), 4(R14)(R13*2), 8(R14)(R13*2))
	zrow5(K1, K2, K3)

f6:
	zstore(fblock, ftile)
	VZEROUPPER
	RET

// func dwInputGradAVX512(dx, grad, w *float32, m *uint16, h, width, oh, ow, pad int)
TEXT ·dwInputGradAVX512(SB), NOSPLIT, $0-72
	MOVQ   w+16(FP), AX
	zweights(AX, 32, 28, 24, 20, 16, 12, 8, 4, 0)
	VPXORD Z25, Z25, Z25
	MOVQ   ow+56(FP), R13
	SHLQ   $2, R13
	MOVQ   width+40(FP), R9
	SHLQ   $2, R9
	MOVQ   oh+48(FP), R11
	MOVQ   h+32(FP), R12
	MOVQ   dx+0(FP), DI
	XORQ   R15, R15

btile:
	MOVQ  pad+64(FP), AX     // AX = R15 + pad - 2
	ADDQ  R15, AX
	SUBQ  $2, AX
	MOVQ  AX, CX             // CX = grad + AX·orow + 4·(pad-2)
	IMULQ R13, CX
	ADDQ  grad+8(FP), CX
	MOVQ  pad+64(FP), DX
	LEAQ  -8(CX)(DX*4), CX
	MOVQ  m+24(FP), BX
	XORQ  R8, R8

bblock:
	ztile(CX)
	zskip(0, b1)
	zloadz((SI), 4(SI), 8(SI))
	zrow0(K5, K6, K7)

b1:
	zskip(1, b2)
	zloadz((SI)(R13*1), 4(SI)(R13*1), 8(SI)(R13*1))
	zrow1(K5, K6, K7)

b2:
	zskip(2, b3)
	zloadz((SI)(R13*2), 4(SI)(R13*2), 8(SI)(R13*2))
	zrow2(K5, K6, K7)

b3:
	zskip(3, b4)
	zloadz((R14), 4(R14), 8(R14))
	zrow3(K5, K6, K7)

b4:
	zskip(4, b5)
	zloadz((R14)(R13*1), 4(R14)(R13*1), 8(R14)(R13*1))
	zrow4(K5, K6, K7)

b5:
	zskip(5, b6)
	zloadz((R14)(R13*2), 4(R14)(R13*2), 8(R14)(R13*2))
	zrow5(K5, K6, K7)

b6:
	zstore(bblock, btile)
	VZEROUPPER
	RET

// The weight gradient of a 3×3 kernel on tierAVX512. Its operands are
// staged channels-last first (dwStageAVX512): the image's input as
// h·width lines of 64 bytes, line p holding float p of the group's 16
// planes, lane c channel c, and its gradient as oh·ow such lines. The
// staging buffer is 64-byte aligned (dwWeightStaged), so each line is
// one aligned load.
//
// dwWeightAVX512 then keeps the group's nine sums per channel in Z0–Z8,
// lane c of Z_t tap t = 3·ki + kj of channel c, and walks the output
// pixels in the contract's order. Per pixel it loads the gradient line,
// whose compare with zero (NEQ_UQ: a NaN is added) gives the lanes that
// add, K1, and adds each tap's term: one VMULPS of the gradient (first
// source) by the input line under the tap, read from memory, and one
// VADDPS into the tap's sum under K1 (sum first). Nine independent
// chains hide one another's add latency.
//
// The sums are pre-seeded from dW and can hold −0, so a term the contract
// skips is not added at all, rather than ANDed to +0 (−0 + +0 is +0): a
// zero gradient by K1, and a tap in the padding by not being visited. A
// pixel's taps inside the image are bit t of the AND of its row's and
// its column's entries of the tap table (dwTapBits in dwconv_amd64.go);
// a pixel with all nine takes the straight path, one on the border tests
// each bit and never loads a tap outside the image, so no load leaves
// the staged input.
//
// Register plan: Z0–Z8 the sums, Z9 zero, Z10 the pixel's gradient,
// Z11–Z19 its terms; K1 the lanes that add. AX holds the pixel's taps
// inside the image, R8 points at the input line under tap (0, 0), R9 is
// a staged input row in bytes, R11 points at the gradient line, R12 the
// row's taps, R13 at the column's entry, BX at the column entries' end,
// R14 at their start (the row entries' end), R15 at the row's entry, SI
// at the input line under tap (0, 0) of the row's first pixel.

// ztap adds the term of the input line at x to the sum acc, through t.
#define ztap(x, acc, t) \
	VMULPS x, Z10, t; \
	VADDPS t, acc, K1, acc

// ztapif is ztap where bit of AX is set: the tap lies inside the image.
#define ztapif(bit, skip, x, acc, t) \
	TESTL $bit, AX; \
	JEQ   skip;     \
	ztap(x, acc, t)

// splane loads the tile's floats of plane k-1, AX advanced to it, into
// z, unless there are fewer than k planes: then the loads end.
#define splane(k, z) \
	CMPQ      BX, $k;      \
	JLT       sloaded;     \
	ADDQ      DX, AX;      \
	VMOVUPS.Z (AX), K1, z

// func dwStageAVX512(dst, src *float32, hw, n int)
//
// Tiles of 16 positions: the n planes' floats of the tile load into
// Z0–Z15 (under K1, the positions below hw; planes from n on are zero),
// and a 16×16 transpose turns them into the tile's 16 lines: VUNPCKLPS
// and VUNPCKHPS interleave plane pairs, VUNPCKLPD and VUNPCKHPD gather
// four planes' floats per 128-bit lane, and two rounds of VSHUFF32X4
// join the lanes. At most four planes (a model's first block reads
// three) fill only lane 0 of a line, which one zero-masked shuffle of
// the second round's result makes: 24 shuffles a tile in place of 64.
// Only bits move.
TEXT ·dwStageAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ hw+16(FP), DX
	SHLQ $2, DX
	MOVQ n+24(FP), BX
	MOVQ hw+16(FP), R8
	MOVL $0x000f, AX
	KMOVW AX, K2

stile:
	MOVL $0xffff, AX
	CMPQ R8, $16
	JGE  sfull
	MOVQ R8, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX

sfull:
	KMOVW     AX, K1
	VPXORD    Z1, Z1, Z1
	VPXORD    Z2, Z2, Z2
	VPXORD    Z3, Z3, Z3
	VPXORD    Z4, Z4, Z4
	VPXORD    Z5, Z5, Z5
	VPXORD    Z6, Z6, Z6
	VPXORD    Z7, Z7, Z7
	VPXORD    Z8, Z8, Z8
	VPXORD    Z9, Z9, Z9
	VPXORD    Z10, Z10, Z10
	VPXORD    Z11, Z11, Z11
	VPXORD    Z12, Z12, Z12
	VPXORD    Z13, Z13, Z13
	VPXORD    Z14, Z14, Z14
	VPXORD    Z15, Z15, Z15
	MOVQ      SI, AX
	VMOVUPS.Z (AX), K1, Z0
	splane(2, Z1)
	splane(3, Z2)
	splane(4, Z3)
	splane(5, Z4)
	splane(6, Z5)
	splane(7, Z6)
	splane(8, Z7)
	splane(9, Z8)
	splane(10, Z9)
	splane(11, Z10)
	splane(12, Z11)
	splane(13, Z12)
	splane(14, Z13)
	splane(15, Z14)
	splane(16, Z15)

sloaded:
	CMPQ BX, $4
	JLE  squad

	// Planes a…p: Z16 = a0 b0 a1 b1 per 128-bit lane, Z17 = a2 b2 a3 b3,
	// and so on for each pair.
	VUNPCKLPS Z1, Z0, Z16
	VUNPCKHPS Z1, Z0, Z17
	VUNPCKLPS Z3, Z2, Z18
	VUNPCKHPS Z3, Z2, Z19
	VUNPCKLPS Z5, Z4, Z20
	VUNPCKHPS Z5, Z4, Z21
	VUNPCKLPS Z7, Z6, Z22
	VUNPCKHPS Z7, Z6, Z23
	VUNPCKLPS Z9, Z8, Z24
	VUNPCKHPS Z9, Z8, Z25
	VUNPCKLPS Z11, Z10, Z26
	VUNPCKHPS Z11, Z10, Z27
	VUNPCKLPS Z13, Z12, Z28
	VUNPCKHPS Z13, Z12, Z29
	VUNPCKLPS Z15, Z14, Z30
	VUNPCKHPS Z15, Z14, Z31

	// Z(4q+m), m < 4: planes 4q…4q+3 of position 4L+m in 128-bit lane L.
	VUNPCKLPD Z18, Z16, Z0
	VUNPCKHPD Z18, Z16, Z1
	VUNPCKLPD Z19, Z17, Z2
	VUNPCKHPD Z19, Z17, Z3
	VUNPCKLPD Z22, Z20, Z4
	VUNPCKHPD Z22, Z20, Z5
	VUNPCKLPD Z23, Z21, Z6
	VUNPCKHPD Z23, Z21, Z7
	VUNPCKLPD Z26, Z24, Z8
	VUNPCKHPD Z26, Z24, Z9
	VUNPCKLPD Z27, Z25, Z10
	VUNPCKHPD Z27, Z25, Z11
	VUNPCKLPD Z30, Z28, Z12
	VUNPCKHPD Z30, Z28, Z13
	VUNPCKLPD Z31, Z29, Z14
	VUNPCKHPD Z31, Z29, Z15

	// Z(16+m): lanes 0, 1 of Z(m), then of Z(4+m); Z(20+m): lanes 2, 3.
	// Z(24+m) and Z(28+m) the same of Z(8+m) and Z(12+m).
	VSHUFF32X4 $0x44, Z4, Z0, Z16
	VSHUFF32X4 $0x44, Z5, Z1, Z17
	VSHUFF32X4 $0x44, Z6, Z2, Z18
	VSHUFF32X4 $0x44, Z7, Z3, Z19
	VSHUFF32X4 $0xee, Z4, Z0, Z20
	VSHUFF32X4 $0xee, Z5, Z1, Z21
	VSHUFF32X4 $0xee, Z6, Z2, Z22
	VSHUFF32X4 $0xee, Z7, Z3, Z23
	VSHUFF32X4 $0x44, Z12, Z8, Z24
	VSHUFF32X4 $0x44, Z13, Z9, Z25
	VSHUFF32X4 $0x44, Z14, Z10, Z26
	VSHUFF32X4 $0x44, Z15, Z11, Z27
	VSHUFF32X4 $0xee, Z12, Z8, Z28
	VSHUFF32X4 $0xee, Z13, Z9, Z29
	VSHUFF32X4 $0xee, Z14, Z10, Z30
	VSHUFF32X4 $0xee, Z15, Z11, Z31

	// Line j = 4L+m: lane L of Z(m), Z(4+m), Z(8+m) and Z(12+m).
	VSHUFF32X4 $0x88, Z24, Z16, Z0
	VSHUFF32X4 $0x88, Z25, Z17, Z1
	VSHUFF32X4 $0x88, Z26, Z18, Z2
	VSHUFF32X4 $0x88, Z27, Z19, Z3
	VSHUFF32X4 $0xdd, Z24, Z16, Z4
	VSHUFF32X4 $0xdd, Z25, Z17, Z5
	VSHUFF32X4 $0xdd, Z26, Z18, Z6
	VSHUFF32X4 $0xdd, Z27, Z19, Z7
	VSHUFF32X4 $0x88, Z28, Z20, Z8
	VSHUFF32X4 $0x88, Z29, Z21, Z9
	VSHUFF32X4 $0x88, Z30, Z22, Z10
	VSHUFF32X4 $0x88, Z31, Z23, Z11
	VSHUFF32X4 $0xdd, Z28, Z20, Z12
	VSHUFF32X4 $0xdd, Z29, Z21, Z13
	VSHUFF32X4 $0xdd, Z30, Z22, Z14
	VSHUFF32X4 $0xdd, Z31, Z23, Z15
	JMP        sstore

squad:
	// At most 4 planes: after two rounds Z(m) holds position 4L+m in
	// 128-bit lane L, and line 4L+m is that lane alone (K2).
	VUNPCKLPS       Z1, Z0, Z16
	VUNPCKHPS       Z1, Z0, Z17
	VUNPCKLPS       Z3, Z2, Z18
	VUNPCKHPS       Z3, Z2, Z19
	VUNPCKLPD       Z18, Z16, Z0
	VUNPCKHPD       Z18, Z16, Z1
	VUNPCKLPD       Z19, Z17, Z2
	VUNPCKHPD       Z19, Z17, Z3
	VSHUFF32X4.Z    $1, Z0, Z0, K2, Z4
	VSHUFF32X4.Z    $1, Z1, Z1, K2, Z5
	VSHUFF32X4.Z    $1, Z2, Z2, K2, Z6
	VSHUFF32X4.Z    $1, Z3, Z3, K2, Z7
	VSHUFF32X4.Z    $2, Z0, Z0, K2, Z8
	VSHUFF32X4.Z    $2, Z1, Z1, K2, Z9
	VSHUFF32X4.Z    $2, Z2, Z2, K2, Z10
	VSHUFF32X4.Z    $2, Z3, Z3, K2, Z11
	VSHUFF32X4.Z    $3, Z0, Z0, K2, Z12
	VSHUFF32X4.Z    $3, Z1, Z1, K2, Z13
	VSHUFF32X4.Z    $3, Z2, Z2, K2, Z14
	VSHUFF32X4.Z    $3, Z3, Z3, K2, Z15
	VMOVUPS.Z       Z0, K2, Z0
	VMOVUPS.Z       Z1, K2, Z1
	VMOVUPS.Z       Z2, K2, Z2
	VMOVUPS.Z       Z3, K2, Z3

sstore:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	VMOVUPS Z8, 512(DI)
	VMOVUPS Z9, 576(DI)
	VMOVUPS Z10, 640(DI)
	VMOVUPS Z11, 704(DI)
	VMOVUPS Z12, 768(DI)
	VMOVUPS Z13, 832(DI)
	VMOVUPS Z14, 896(DI)
	VMOVUPS Z15, 960(DI)
	ADDQ    $1024, DI
	ADDQ    $64, SI
	SUBQ    $16, R8
	JGT     stile
	VZEROUPPER
	RET

// func dwWeightAVX512(sums, grad, x *float32, tm *uint16, h, width, oh, ow, pad int)
TEXT ·dwWeightAVX512(SB), NOSPLIT, $0-72
	MOVQ   sums+0(FP), AX
	VMOVUPS (AX), Z0
	VMOVUPS 64(AX), Z1
	VMOVUPS 128(AX), Z2
	VMOVUPS 192(AX), Z3
	VMOVUPS 256(AX), Z4
	VMOVUPS 320(AX), Z5
	VMOVUPS 384(AX), Z6
	VMOVUPS 448(AX), Z7
	VMOVUPS 512(AX), Z8
	VPXORD Z9, Z9, Z9
	MOVQ   width+40(FP), R9
	SHLQ   $6, R9
	MOVQ   width+40(FP), AX  // SI = x - 64·pad·(width+1)
	INCQ   AX
	IMULQ  pad+64(FP), AX
	SHLQ   $6, AX
	MOVQ   x+16(FP), SI
	SUBQ   AX, SI
	MOVQ   grad+8(FP), R11
	MOVQ   tm+24(FP), R15
	MOVQ   oh+48(FP), AX
	LEAQ   (R15)(AX*2), R14
	MOVQ   ow+56(FP), BX
	LEAQ   (R14)(BX*2), BX

wrow:
	MOVWLZX (R15), R12
	MOVQ    SI, R8
	MOVQ    R14, R13

wcol:
	MOVWLZX (R13), AX
	ANDL    R12, AX
	VMOVUPS (R11), Z10
	VCMPPS  NEQ_UQ, Z9, Z10, K1
	CMPL    AX, $0x1ff
	JNE     wedge
	ztap((R8), Z0, Z11)
	ztap(64(R8), Z1, Z12)
	ztap(128(R8), Z2, Z13)
	ztap((R8)(R9*1), Z3, Z14)
	ztap(64(R8)(R9*1), Z4, Z15)
	ztap(128(R8)(R9*1), Z5, Z16)
	ztap((R8)(R9*2), Z6, Z17)
	ztap(64(R8)(R9*2), Z7, Z18)
	ztap(128(R8)(R9*2), Z8, Z19)
	JMP     wnext

wedge:
	ztapif(0x001, w1, (R8), Z0, Z11)
w1:
	ztapif(0x002, w2, 64(R8), Z1, Z12)
w2:
	ztapif(0x004, w3, 128(R8), Z2, Z13)
w3:
	ztapif(0x008, w4, (R8)(R9*1), Z3, Z14)
w4:
	ztapif(0x010, w5, 64(R8)(R9*1), Z4, Z15)
w5:
	ztapif(0x020, w6, 128(R8)(R9*1), Z5, Z16)
w6:
	ztapif(0x040, w7, (R8)(R9*2), Z6, Z17)
w7:
	ztapif(0x080, w8, 64(R8)(R9*2), Z7, Z18)
w8:
	ztapif(0x100, wnext, 128(R8)(R9*2), Z8, Z19)

wnext:
	ADDQ $64, R8
	ADDQ $64, R11
	ADDQ $2, R13
	CMPQ R13, BX
	JLT  wcol
	ADDQ R9, SI
	ADDQ $2, R15
	CMPQ R15, R14
	JLT  wrow

	MOVQ    sums+0(FP), AX
	VMOVUPS Z0, (AX)
	VMOVUPS Z1, 64(AX)
	VMOVUPS Z2, 128(AX)
	VMOVUPS Z3, 192(AX)
	VMOVUPS Z4, 256(AX)
	VMOVUPS Z5, 320(AX)
	VMOVUPS Z6, 384(AX)
	VMOVUPS Z7, 448(AX)
	VMOVUPS Z8, 512(AX)
	VZEROUPPER
	RET

// The forward pass and the input gradient on tierAVX. Each of a YMM
// block's eight lanes owns one column — an output column forward, an
// input column for the input gradient — of one row at a time. As in
// microKernelAVX, VMULPS takes the broadcast weight as its first source
// and VADDPS the accumulator, which starts at +0 for every lane.
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
// Register plan: Y0 the block's accumulators, Y1 the load
// mask (then, for dx, the nonzero mask), Y2 the loaded floats, Y3 the
// broadcast weight and then the term, Y4 zero. AX counts a kernel row's
// taps, BX points at the block's floats in the current source row, CX
// counts kernel rows, DX at the current weight, SI at the first source
// row's floats for block 0, DI at the destination row, R8 is ob, R9 the
// first kernel row's weight, R10 the number of kernel rows, R11 a source
// row in bytes, R12 K, R13 the row index and R14 lm+ob.

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
