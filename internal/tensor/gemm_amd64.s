// AVX microkernel for the packed GEMM engine (see gemm.go), and the
// CPUID/XGETBV probe that decides at start-up whether it may run.
//
// Computes an 8x8 output tile:
//
//	out[r][c] (+)= sum over p of ap[p*8+r] * bp[p*8+c]
//
// Register plan: Y0..Y7 hold the accumulator tile (one 8-wide vector per
// output row), Y8 the current B panel row, Y9 the broadcast A value and
// then its product. Each vector lane owns one output column, so the
// per-element operation sequence — multiply then add, terms in
// ascending-p order — is exactly the scalar reference sequence and the
// tile is bit-identical to microGeneric. The multiply and the add are
// separate instructions, each rounding once: a fused multiply-add would
// round once per term and break that. VMULPS takes the broadcast A value
// as its first source and VADDPS the accumulator, matching the operand
// roles of the compiled Go kernels so NaN propagation agrees too.

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

// row accumulates A value a[p][r] (byte offset off in the A strip) into
// accumulator acc: broadcast, multiply by the B row, add.
#define row(off, acc) \
	VBROADCASTSS off(AX), Y9; \
	VMULPS       Y8, Y9, Y9;  \
	VADDPS       Y9, acc, acc

// func microKernelAVX(out *float32, ldo int, ap, bp *float32, pc int, accumulate int)
TEXT ·microKernelAVX(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), SI
	MOVQ ap+16(FP), AX
	MOVQ bp+24(FP), BX
	MOVQ pc+32(FP), CX
	MOVQ accumulate+40(FP), DX

	SHLQ $2, SI              // row stride in bytes
	LEAQ (SI)(SI*2), R8      // 3 rows
	LEAQ (DI)(SI*4), R9      // out row 4

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ DX, DX
	JZ    ploop
	VMOVUPS (DI), Y0         // resume: load the spilled tile
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (DI)(SI*2), Y2
	VMOVUPS (DI)(R8*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS (R9)(SI*1), Y5
	VMOVUPS (R9)(SI*2), Y6
	VMOVUPS (R9)(R8*1), Y7

ploop:
	VMOVUPS (BX), Y8         // b[p][0:8]
	row(0, Y0)
	row(4, Y1)
	row(8, Y2)
	row(12, Y3)
	row(16, Y4)
	row(20, Y5)
	row(24, Y6)
	row(28, Y7)
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  ploop

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
