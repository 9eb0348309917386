// GEMM microkernels for the packed GEMM engine (see gemm.go), and the
// CPUID/XGETBV probes that pick one of them at start-up (hostTier).
//
// Each computes a rows×w output tile from A read through strides and B
// through a table of row offsets, both in floats (microOperands in
// gemm.go):
//
//	out[r][c] (+)= sum over p of a[r*rs + p*ps] * b[boff[p] + c]
//
// Read in place, a row-major A is rs k, ps 1 and a MatMulTA A rs 1, ps m.
// boff[p] is p·8 in a packed B panel, p·n in a row-major B read in place,
// and (c·Hp + ki)·Wp + kj for tap p = (c, ki, kj) of a stride-1 conv's
// input read in place: one addressing mode for all three.
// microKernelAVX covers one 8-wide panel (1 ≤ rows, w ≤ 8);
// microKernelAVX512 two adjacent ones (1 ≤ rows ≤ 8, 1 ≤ w ≤ 16), the
// second panel's row p at b[boff[p] + pair], so columns 8–15 read
// b[boff[p] + pair + c - 8]. pair is the distance between the two
// panels' starts: k·8 for packed panels, 8 for a row-major B read in
// place, and in a conv input 8 within an output row or the step to the
// next row's (or image's) first panel; a lone trailing panel passes 0.
//
// Register plan (microKernelAVX; microKernelAVX512 the same in Z
// registers): Y0..Y7 hold the accumulator tile (one vector per output
// row), Y8 the current B row, Y9 the broadcast A value and then its
// product, Y10 an edge tile's column mask (K1 in microKernelAVX512). AX
// and R10 point at A rows 0 and 4 of the current term, and R11 and R12
// hold rs and 3·rs in bytes, so rows 1–3 and 5–7 are one scaled index
// away; each term advances AX and R10 by ps (R13, in bytes) and loads its
// B row from BX (and R15, the second panel) plus its offset (R14), read
// from the table through DX and the term counter CX. DI and R9 point at
// output rows 0 and 4, SI and R8 hold ldo and 3·ldo in bytes. Each vector
// lane owns one output column, so the per-element operation sequence —
// multiply then add, terms in ascending-p order — is exactly the scalar
// reference sequence and the tile is bit-identical to microGeneric,
// whatever the strides. The multiply and the add are separate
// instructions, each rounding once: a fused multiply-add would round
// once per term and break that. VMULPS takes the broadcast A value as its
// first source and VADDPS the accumulator, matching the operand roles of
// the compiled Go kernels so NaN propagation agrees too.
//
// microKernelAVX loads and stores a full 8×8 tile's rows with VMOVUPS.
// An edge tile, and every microKernelAVX512 tile, touches only its own
// rows×w corner, in place: its reduction loop accumulates rows
// 0..rows-1 alone, so A rows past the tile are never read, and it loads
// and stores those rows under a mask of the first w lanes (VMASKMOVPS,
// or VMOVUPS under the opmask K1), which neither reads nor writes — nor
// faults on — the lanes past w. B is always read a whole 8 floats a row
// and panel: a panel narrower than 8 columns is packed and zero-padded
// (gemm.go). R14 is scratch in ABI0: it loads the edge mask, then each
// term's offset. R15 is too, as long as no global data is touched after
// it is set, and microKernelAVX512 touches none.

#include "textflag.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX     // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV                   // XCR0: the OS saves XMM (bit 1) and YMM (bit 2) state
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func hasAVX512() bool
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7              // the highest leaf
	JLT  noavx512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX     // OSXSAVE (bit 27): XGETBV may run
	JEQ  noavx512
	XORL CX, CX
	XGETBV                   // XCR0: XMM, YMM, opmask, ZMM0–15 upper halves, ZMM16–31 (bits 1, 2, 5, 6, 7)
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  noavx512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x30000, BX        // AVX512F (bit 16) and AVX512DQ (bit 17, VINSERTF32X8)
	CMPL BX, $0x30000
	JNE  noavx512
	MOVB $1, ret+0(FP)
	RET
noavx512:
	MOVB $0, ret+0(FP)
	RET

// edgeMask is eight all-ones lanes, then eight zero lanes: the eight
// from lane 8-w on are the VMASKMOVPS mask of an edge tile's first w
// columns.
DATA edgeMask<>+0(SB)/8, $-1
DATA edgeMask<>+8(SB)/8, $-1
DATA edgeMask<>+16(SB)/8, $-1
DATA edgeMask<>+24(SB)/8, $-1
DATA edgeMask<>+32(SB)/8, $0
DATA edgeMask<>+40(SB)/8, $0
DATA edgeMask<>+48(SB)/8, $0
DATA edgeMask<>+56(SB)/8, $0
GLOBL edgeMask<>(SB), RODATA|NOPTR, $64

// row accumulates the A value at addr (a[r][p]) into accumulator acc:
// broadcast, multiply by the B row, add. zrow is the same in Z registers.
#define row(addr, acc) \
	VBROADCASTSS addr, Y9;   \
	VMULPS       Y8, Y9, Y9; \
	VADDPS       Y9, acc, acc
#define zrow(addr, acc) \
	VBROADCASTSS addr, Z9;   \
	VMULPS       Z8, Z9, Z9; \
	VADDPS       Z9, acc, acc

// rowsN is one term of output rows 0..N-1; zrowsN the same in Z registers.
#define rows1 row((AX), Y0)
#define rows2 rows1; row((AX)(R11*1), Y1)
#define rows3 rows2; row((AX)(R11*2), Y2)
#define rows4 rows3; row((AX)(R12*1), Y3)
#define rows5 rows4; row((R10), Y4)
#define rows6 rows5; row((R10)(R11*1), Y5)
#define rows7 rows6; row((R10)(R11*2), Y6)
#define rows8 rows7; row((R10)(R12*1), Y7)
#define zrows1 zrow((AX), Z0)
#define zrows2 zrows1; zrow((AX)(R11*1), Z1)
#define zrows3 zrows2; zrow((AX)(R11*2), Z2)
#define zrows4 zrows3; zrow((AX)(R12*1), Z3)
#define zrows5 zrows4; zrow((R10), Z4)
#define zrows6 zrows5; zrow((R10)(R11*1), Z5)
#define zrows7 zrows6; zrow((R10)(R11*2), Z6)
#define zrows8 zrows7; zrow((R10)(R12*1), Z7)

// brow loads the term's B row of one panel into Y8; zbrow loads the rows
// of both panels of a pair into Z8, the second into lanes 8–15.
#define brow VMOVUPS (BX)(R14*4), Y8
#define zbrow \
	VMOVUPS      (BX)(R14*4), Y8; \
	VINSERTF32X8 $1, (R15)(R14*4), Z8, Z8

// terms runs the reduction loop at label: pc terms, each the B row (load)
// and then the A values of body's rows. CX counts up from -pc to 0 and DX
// points just past the pc offsets, so (DX)(CX*4) is the term's offset.
#define terms(label, load, body) \
label:                       \
	MOVLQSX (DX)(CX*4), R14; \
	load;                    \
	body;                    \
	ADDQ    R13, AX;         \
	ADDQ    R13, R10;        \
	INCQ    CX;              \
	JNZ     label

// counter sets up the terms loop's counter from the term count pc in CX
// (see terms).
#define counter \
	LEAQ (DX)(CX*4), DX; \
	NEGQ CX

// edge moves an edge tile's output row k-1 from src to dst under the
// column mask, unless the tile has fewer than k rows (CX): then the
// moves end at label. zedge is the same under the opmask K1.
#define edge(k, label, src, dst) \
	CMPQ       CX, $k;           \
	JLT        label;            \
	VMASKMOVPS src, Y10, dst
#define zedge(k, label, src, dst) \
	CMPQ    CX, $k; \
	JLT     label;  \
	VMOVUPS src, K1, dst

// Both microkernels start with PCALIGN $64, which puts the function on
// a 64-byte line: their loops then sit where they do whatever code the
// linker places before them. Functions are otherwise 32-byte aligned,
// and a 32-byte shift of microKernelAVX512 (more depthwise code ahead of
// it) cost xfmr_inproc ~8% of its calibrated samples per second.
//
// func microKernelAVX(out *float32, ldo int, a *float32, rs, ps int, b *float32, boff *int32, pc, rows, w int, accumulate bool)
TEXT ·microKernelAVX(SB), NOSPLIT, $0-81
	PCALIGN $64
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ rs+24(FP), R11
	MOVQ ps+32(FP), R13
	MOVQ b+40(FP), BX
	MOVQ boff+48(FP), DX

	SHLQ $2, SI              // output row stride in bytes
	LEAQ (SI)(SI*2), R8      // 3 output rows
	LEAQ (DI)(SI*4), R9      // output row 4
	SHLQ $2, R11             // A row stride in bytes
	LEAQ (R11)(R11*2), R12   // 3 A rows
	LEAQ (AX)(R11*4), R10    // A row 4
	SHLQ $2, R13             // A term stride in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	CMPQ w+72(FP), $8
	JNE  edgetile
	CMPQ rows+64(FP), $8
	JNE  edgetile

	MOVQ pc+56(FP), CX
	counter
	CMPB accumulate+80(FP), $0
	JEQ  ploop
	VMOVUPS (DI), Y0         // resume: load the spilled tile
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (DI)(SI*2), Y2
	VMOVUPS (DI)(R8*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS (R9)(SI*1), Y5
	VMOVUPS (R9)(SI*2), Y6
	VMOVUPS (R9)(R8*1), Y7

	terms(ploop, brow, rows8)

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (DI)(SI*2)
	VMOVUPS Y3, (DI)(R8*1)
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, (R9)(SI*1)
	VMOVUPS Y6, (R9)(SI*2)
	VMOVUPS Y7, (R9)(R8*1)
	VZEROUPPER
	RET

edgetile:
	MOVQ    w+72(FP), CX
	NEGQ    CX
	LEAQ    edgeMask<>+32(SB), R14
	VMOVUPS (R14)(CX*4), Y10       // lanes [0, w) all ones
	MOVQ    rows+64(FP), CX

	CMPB accumulate+80(FP), $0
	JEQ  edispatch
	VMASKMOVPS (DI), Y10, Y0 // resume: load the tile's spilled rows
	edge(2, edispatch, (DI)(SI*1), Y1)
	edge(3, edispatch, (DI)(SI*2), Y2)
	edge(4, edispatch, (DI)(R8*1), Y3)
	edge(5, edispatch, (R9), Y4)
	edge(6, edispatch, (R9)(SI*1), Y5)
	edge(7, edispatch, (R9)(SI*2), Y6)
	edge(8, edispatch, (R9)(R8*1), Y7)

edispatch:
	MOVQ pc+56(FP), CX
	counter
	CMPQ rows+64(FP), $4
	JLT  e1to3
	JEQ  e4
	CMPQ rows+64(FP), $6
	JLT  e5
	JEQ  e6
	CMPQ rows+64(FP), $8
	JLT  e7
	terms(e8, brow, rows8)
	JMP  estore
	terms(e7, brow, rows7)
	JMP  estore
	terms(e6, brow, rows6)
	JMP  estore
	terms(e5, brow, rows5)
	JMP  estore
	terms(e4, brow, rows4)
	JMP  estore
e1to3:
	CMPQ rows+64(FP), $2
	JLT  e1
	JEQ  e2
	terms(e3, brow, rows3)
	JMP  estore
	terms(e2, brow, rows2)
	JMP  estore
	terms(e1, brow, rows1)

estore:
	MOVQ rows+64(FP), CX
	VMASKMOVPS Y0, Y10, (DI)
	edge(2, edone, Y1, (DI)(SI*1))
	edge(3, edone, Y2, (DI)(SI*2))
	edge(4, edone, Y3, (DI)(R8*1))
	edge(5, edone, Y4, (R9))
	edge(6, edone, Y5, (R9)(SI*1))
	edge(7, edone, Y6, (R9)(SI*2))
	edge(8, edone, Y7, (R9)(R8*1))

edone:
	VZEROUPPER
	RET

// func microKernelAVX512(out *float32, ldo int, a *float32, rs, ps int, b *float32, boff *int32, pair, pc, rows, w int, accumulate bool)
TEXT ·microKernelAVX512(SB), NOSPLIT, $0-89
	PCALIGN $64
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ rs+24(FP), R11
	MOVQ ps+32(FP), R13
	MOVQ b+40(FP), BX
	MOVQ boff+48(FP), DX
	MOVQ pair+56(FP), R15

	SHLQ $2, SI              // output row stride in bytes
	LEAQ (SI)(SI*2), R8      // 3 output rows
	LEAQ (DI)(SI*4), R9      // output row 4
	SHLQ $2, R11             // A row stride in bytes
	LEAQ (R11)(R11*2), R12   // 3 A rows
	LEAQ (AX)(R11*4), R10    // A row 4
	SHLQ $2, R13             // A term stride in bytes
	LEAQ (BX)(R15*4), R15    // the pair's second panel

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

	MOVQ  w+80(FP), CX
	MOVL  $1, R14
	SHLL  CX, R14
	DECL  R14                // lanes [0, w), w ≤ 16
	KMOVW R14, K1
	MOVQ  rows+72(FP), CX

	CMPB accumulate+88(FP), $0
	JEQ  zdispatch
	VMOVUPS (DI), K1, Z0     // resume: load the tile's spilled rows
	zedge(2, zdispatch, (DI)(SI*1), Z1)
	zedge(3, zdispatch, (DI)(SI*2), Z2)
	zedge(4, zdispatch, (DI)(R8*1), Z3)
	zedge(5, zdispatch, (R9), Z4)
	zedge(6, zdispatch, (R9)(SI*1), Z5)
	zedge(7, zdispatch, (R9)(SI*2), Z6)
	zedge(8, zdispatch, (R9)(R8*1), Z7)

zdispatch:
	MOVQ pc+64(FP), CX
	counter
	CMPQ rows+72(FP), $4
	JLT  z1to3
	JEQ  z4
	CMPQ rows+72(FP), $6
	JLT  z5
	JEQ  z6
	CMPQ rows+72(FP), $8
	JLT  z7
	terms(z8, zbrow, zrows8)
	JMP  zstore
	terms(z7, zbrow, zrows7)
	JMP  zstore
	terms(z6, zbrow, zrows6)
	JMP  zstore
	terms(z5, zbrow, zrows5)
	JMP  zstore
	terms(z4, zbrow, zrows4)
	JMP  zstore
z1to3:
	CMPQ rows+72(FP), $2
	JLT  z1
	JEQ  z2
	terms(z3, zbrow, zrows3)
	JMP  zstore
	terms(z2, zbrow, zrows2)
	JMP  zstore
	terms(z1, zbrow, zrows1)

zstore:
	MOVQ rows+72(FP), CX
	VMOVUPS Z0, K1, (DI)
	zedge(2, zdone, Z1, (DI)(SI*1))
	zedge(3, zdone, Z2, (DI)(SI*2))
	zedge(4, zdone, Z3, (DI)(R8*1))
	zedge(5, zdone, Z4, (R9))
	zedge(6, zdone, Z5, (R9)(SI*1))
	zedge(7, zdone, Z6, (R9)(SI*2))
	zedge(8, zdone, Z7, (R9)(R8*1))

zdone:
	VZEROUPPER
	RET

// func transposeAVX(dst, src *float32, hw, tiles, w int)
//
// The 1×1 weight-gradient pack (transposeLanes in gemm_amd64.go): tile t
// takes floats 8t…8t+7 of rows c < w of src, hw floats apart, and writes
// their transpose to the 64 floats of dst from 64t — dst row i is
// position 8t+i, its lane c row c, lanes c ≥ w zero. Rows 0–7 load into
// Y0–Y7 (rows ≥ w are zero registers, never loads), then three rounds of
// shuffles transpose them: VUNPCKLPS/VUNPCKHPS interleave row pairs,
// VSHUFPS gathers four rows' elements per 128-bit half, and VPERM2F128
// joins the halves. Only bits move. SI, R8 and R9 point at rows 0, 3 and
// 6 of the current tile, DX holds the row stride in bytes.
TEXT ·transposeAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ hw+16(FP), DX
	SHLQ $2, DX
	MOVQ tiles+24(FP), CX
	MOVQ w+32(FP), BX
	LEAQ (SI)(DX*2), R8
	ADDQ DX, R8
	LEAQ (R8)(DX*2), R9
	ADDQ DX, R9

ttile:
	VMOVUPS (SI), Y0
	CMPQ    BX, $8
	JEQ     tfull
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	VXORPS  Y4, Y4, Y4
	VXORPS  Y5, Y5, Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	CMPQ    BX, $2
	JLT     tloaded
	VMOVUPS (SI)(DX*1), Y1
	CMPQ    BX, $3
	JLT     tloaded
	VMOVUPS (SI)(DX*2), Y2
	CMPQ    BX, $4
	JLT     tloaded
	VMOVUPS (R8), Y3
	CMPQ    BX, $5
	JLT     tloaded
	VMOVUPS (R8)(DX*1), Y4
	CMPQ    BX, $6
	JLT     tloaded
	VMOVUPS (R8)(DX*2), Y5
	CMPQ    BX, $7
	JLT     tloaded
	VMOVUPS (R9), Y6
	JMP     tloaded

tfull:
	VMOVUPS (SI)(DX*1), Y1
	VMOVUPS (SI)(DX*2), Y2
	VMOVUPS (R8), Y3
	VMOVUPS (R8)(DX*1), Y4
	VMOVUPS (R8)(DX*2), Y5
	VMOVUPS (R9), Y6
	VMOVUPS (R9)(DX*1), Y7

tloaded:
	// Rows a…h: Y8 = a0 b0 a1 b1 | a4 b4 a5 b5, Y9 = a2 b2 a3 b3 | a6 b6 a7 b7,
	// and so on for c/d, e/f and g/h.
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	// Y0 = a0 b0 c0 d0 | a4 b4 c4 d4, Y1 the same at 1 | 5, … Y4–Y7 for e–h.
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	// Position i: the low halves for 0–3, the high halves for 4–7.
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	VMOVUPS    Y8, (DI)
	VMOVUPS    Y9, 32(DI)
	VMOVUPS    Y10, 64(DI)
	VMOVUPS    Y11, 96(DI)
	VMOVUPS    Y12, 128(DI)
	VMOVUPS    Y13, 160(DI)
	VMOVUPS    Y14, 192(DI)
	VMOVUPS    Y15, 224(DI)
	ADDQ       $256, DI
	ADDQ       $32, SI
	ADDQ       $32, R8
	ADDQ       $32, R9
	DECQ       CX
	JNZ        ttile
	VZEROUPPER
	RET
