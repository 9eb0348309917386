// AVX microkernel for the packed GEMM engine (see gemm.go), and the
// CPUID/XGETBV probe that decides at start-up whether it may run.
//
// Computes a rows×w output tile (1 ≤ rows, w ≤ 8) from A read through
// strides and B through a table of row offsets, both in floats
// (microOperands in gemm.go):
//
//	out[r][c] (+)= sum over p of a[r*rs + p*ps] * b[boff[p] + c]
//
// Read in place, a row-major A is rs k, ps 1 and a MatMulTA A rs 1, ps m.
// boff[p] is p·8 in a packed B panel, p·n in a row-major B read in place,
// and (c·Hp + ki)·Wp + kj for tap p = (c, ki, kj) of a stride-1 conv's
// input read in place: one addressing mode for all three.
//
// Register plan: Y0..Y7 hold the accumulator tile (one 8-wide vector per
// output row), Y8 the current B row, Y9 the broadcast A value and then
// its product, Y10 an edge tile's column mask. AX and R10 point at A
// rows 0 and 4 of the current term, and R11 and R12 hold rs and 3·rs in
// bytes, so rows 1–3 and 5–7 are one scaled index away; each term
// advances AX and R10 by ps (R13, in bytes) and loads its B row from BX
// plus its offset (R14), read from the table through DX and the term
// counter CX. DI and R9 point at output rows 0 and 4, SI and R8 hold ldo
// and 3·ldo in bytes. Each vector lane owns one output column, so the per-element
// operation sequence — multiply then add, terms in ascending-p order — is
// exactly the scalar reference sequence and the tile is bit-identical to
// microGeneric, whatever the strides. The multiply and the add are
// separate instructions, each rounding once: a fused multiply-add would
// round once per term and break that. VMULPS takes the broadcast A value
// as its first source and VADDPS the accumulator, matching the operand
// roles of the compiled Go kernels so NaN propagation agrees too.
//
// A full 8×8 tile loads and stores its rows with VMOVUPS. An edge tile
// touches only its own rows×w corner, in place: its reduction loop
// accumulates rows 0..rows-1 alone, so A rows past the tile are never
// read, and it loads and stores those rows through VMASKMOVPS under a
// mask of the first w lanes, which neither reads nor writes — nor faults
// on — the lanes past w. B is always read a whole 8 floats a row: a
// panel narrower than 8 columns is packed and zero-padded (gemm.go).
// R14 is scratch in ABI0: it loads the edge mask, then each term's
// offset.

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
// broadcast, multiply by the B row, add.
#define row(addr, acc) \
	VBROADCASTSS addr, Y9;   \
	VMULPS       Y8, Y9, Y9; \
	VADDPS       Y9, acc, acc

// rowsN is one term of output rows 0..N-1.
#define rows1 row((AX), Y0)
#define rows2 rows1; row((AX)(R11*1), Y1)
#define rows3 rows2; row((AX)(R11*2), Y2)
#define rows4 rows3; row((AX)(R12*1), Y3)
#define rows5 rows4; row((R10), Y4)
#define rows6 rows5; row((R10)(R11*1), Y5)
#define rows7 rows6; row((R10)(R11*2), Y6)
#define rows8 rows7; row((R10)(R12*1), Y7)

// terms runs the reduction loop at label: pc terms, each the B row and
// then the A values of body's rows. CX counts up from -pc to 0 and DX
// points just past the pc offsets, so (DX)(CX*4) is the term's offset.
#define terms(label, body) \
label:                       \
	MOVLQSX (DX)(CX*4), R14; \
	VMOVUPS (BX)(R14*4), Y8; \
	body;                    \
	ADDQ    R13, AX;         \
	ADDQ    R13, R10;        \
	INCQ    CX;              \
	JNZ     label

// counter sets up the terms loop's counter (see terms).
#define counter \
	MOVQ pc+56(FP), CX; \
	LEAQ (DX)(CX*4), DX; \
	NEGQ CX

// edge moves an edge tile's output row k-1 from src to dst under the
// column mask, unless the tile has fewer than k rows (CX): then the
// moves end at label.
#define edge(k, label, src, dst) \
	CMPQ       CX, $k;           \
	JLT        label;            \
	VMASKMOVPS src, Y10, dst

// func microKernelAVX(out *float32, ldo int, a *float32, rs, ps int, b *float32, boff *int32, pc, rows, w int, accumulate bool)
TEXT ·microKernelAVX(SB), NOSPLIT, $0-81
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

	terms(ploop, rows8)

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
	counter
	CMPQ rows+64(FP), $4
	JLT  e1to3
	JEQ  e4
	CMPQ rows+64(FP), $6
	JLT  e5
	JEQ  e6
	CMPQ rows+64(FP), $8
	JLT  e7
	terms(e8, rows8)
	JMP  estore
	terms(e7, rows7)
	JMP  estore
	terms(e6, rows6)
	JMP  estore
	terms(e5, rows5)
	JMP  estore
	terms(e4, rows4)
	JMP  estore
e1to3:
	CMPQ rows+64(FP), $2
	JLT  e1
	JEQ  e2
	terms(e3, rows3)
	JMP  estore
	terms(e2, rows2)
	JMP  estore
	terms(e1, rows1)

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
