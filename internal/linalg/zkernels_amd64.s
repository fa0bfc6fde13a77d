#include "textflag.h"

// AVX2 kernels of zkernels.go. The one rule everything here rests on: NO
// fused multiply-add. Every product is rounded by VMULPD before VADDPD /
// VADDSUBPD adds it, exactly like the Go references, so each lane computes
// the reference's IEEE chain bit for bit (`make asm-nofma` greps for it).
//
// A YMM register holds two complex128 values [re0 im0 re1 im1]. For a
// complex product x·y with y broadcast as YR = [yr yr yr yr], YI = [yi ...]:
//
//	t1 = x·YR            = [xr·yr  xi·yr]
//	t2 = swap(x)·YI      = [xi·yi  xr·yi]
//	VADDSUBPD t2, t1     = [xr·yr − xi·yi   xi·yr + xr·yi]
//
// Rows are processed in strips of 8 values (4 YMM), then 2 (1 YMM), then a
// last odd value in XMM. R14/R15 are left alone.

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ROT: rows at R10 (a) and R11 (b); Y11 = c, Y12/Y13 = re/im of f,
// Y14/Y15 = re/im of b-coefficient.
//   a' = c·a + (f·b),  b' = c·b + (bk·a)
#define ROT(off, v0, v1, v2, v3, v4, v5, v6, v7, kc, kfr, kfi, kbr, kbi, swp) \
	VMOVUPD   off(R10), v0;   \
	VMOVUPD   off(R11), v1;   \
	VPERMILPD swp, v1, v2;    \
	VPERMILPD swp, v0, v3;    \
	VMULPD    v1, kfr, v4;    \
	VMULPD    v2, kfi, v2;    \
	VADDSUBPD v2, v4, v4;     \
	VMULPD    v0, kc, v5;     \
	VADDPD    v4, v5, v5;     \
	VMULPD    v0, kbr, v6;    \
	VMULPD    v3, kbi, v3;    \
	VADDSUBPD v3, v6, v6;     \
	VMULPD    v1, kc, v7;     \
	VADDPD    v6, v7, v7;     \
	VMOVUPD   v5, off(R10);   \
	VMOVUPD   v7, off(R11)

#define ROTY(off) ROT(off, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y11, Y12, Y13, Y14, Y15, $5)

// func zrotPairsAVX2(data *complex128, norb int, pairs *int32, npairs int, coef *[5]float64)
TEXT ·zrotPairsAVX2(SB), NOSPLIT, $0-40
	MOVQ data+0(FP), DI
	MOVQ norb+8(FP), R8
	MOVQ pairs+16(FP), SI
	MOVQ npairs+24(FP), CX
	MOVQ coef+32(FP), AX
	VBROADCASTSD 0(AX), Y11
	VBROADCASTSD 8(AX), Y12
	VBROADCASTSD 16(AX), Y13
	VBROADCASTSD 24(AX), Y14
	VBROADCASTSD 32(AX), Y15
	MOVQ R8, R9
	SHLQ $4, R9              // row bytes

rotpair:
	MOVL 0(SI), R10          // indices are validated non-negative
	MOVL 4(SI), R11
	IMULQ R9, R10
	IMULQ R9, R11
	ADDQ DI, R10
	ADDQ DI, R11
	MOVQ R8, DX

rot8:
	CMPQ DX, $8
	JLT  rot2
	ROTY(0)
	ROTY(32)
	ROTY(64)
	ROTY(96)
	ADDQ $128, R10
	ADDQ $128, R11
	SUBQ $8, DX
	JMP  rot8

rot2:
	CMPQ DX, $2
	JLT  rot1
	ROTY(0)
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $2, DX
	JMP  rot2

rot1:
	TESTQ DX, DX
	JZ    rotnext
	ROT(0, X0, X1, X2, X3, X4, X5, X6, X7, X11, X12, X13, X14, X15, $1)

rotnext:
	ADDQ $8, SI
	DECQ CX
	JNZ  rotpair
	VZEROUPPER
	RET

// PHASE: row cursor DI, Y14/Y15 = re/im of the row's phase.
#define PHASE(off, v0, v1, rr, ri, swp) \
	VMOVUPD   off(DI), v0;  \
	VPERMILPD swp, v0, v1;  \
	VMULPD    v0, rr, v0;   \
	VMULPD    v1, ri, v1;   \
	VADDSUBPD v1, v0, v0;   \
	VMOVUPD   v0, off(DI)

// func zphaseRowsAVX2(data *complex128, norb int, rot *complex128, nrows int)
TEXT ·zphaseRowsAVX2(SB), NOSPLIT, $0-32
	MOVQ data+0(FP), DI
	MOVQ norb+8(FP), R8
	MOVQ rot+16(FP), SI
	MOVQ nrows+24(FP), CX

phrow:
	VBROADCASTSD 0(SI), Y14
	VBROADCASTSD 8(SI), Y15
	MOVQ R8, DX

ph8:
	CMPQ DX, $8
	JLT  ph2
	PHASE(0, Y0, Y1, Y14, Y15, $5)
	PHASE(32, Y2, Y3, Y14, Y15, $5)
	PHASE(64, Y4, Y5, Y14, Y15, $5)
	PHASE(96, Y6, Y7, Y14, Y15, $5)
	ADDQ $128, DI
	SUBQ $8, DX
	JMP  ph8

ph2:
	CMPQ DX, $2
	JLT  ph1
	PHASE(0, Y0, Y1, Y14, Y15, $5)
	ADDQ $32, DI
	SUBQ $2, DX
	JMP  ph2

ph1:
	TESTQ DX, DX
	JZ    phnext
	PHASE(0, X0, X1, X14, X15, $1)
	ADDQ $16, DI

phnext:
	ADDQ $16, SI
	DECQ CX
	JNZ  phrow
	VZEROUPPER
	RET

// zgemmArgs field offsets (zkernels.go; TestZGEMMArgsLayout pins them).
#define ARG_A      0
#define ARG_AROW   8
#define ARG_ACOL   16
#define ARG_CONJ   24
#define ARG_B      32
#define ARG_LDB    40
#define ARG_C      48
#define ARG_LDC    56
#define ARG_M      64
#define ARG_KB     72
#define ARG_N      80
#define ARG_ALRE   88
#define ARG_ALIM   96

// MAC: acc += op(A)[i,p] · B[p, j..] with the broadcast a in ar/ai and the
// B cursor in DI.
#define MAC(off, acc, ar, ai, t0, t1, swp) \
	VMOVUPD   off(DI), t0;  \
	VPERMILPD swp, t0, t1;  \
	VMULPD    ar, t0, t0;   \
	VMULPD    ai, t1, t1;   \
	VADDSUBPD t1, t0, t0;   \
	VADDPD    t0, acc, acc

// FLUSH: C[i, j..] += alpha · acc with the C cursor in DI, alpha's re/im
// broadcast in Y14/Y15 (X14/X15 for the odd column).
#define FLUSH(off, acc, alr, ali, t0, t1, swp) \
	VPERMILPD swp, acc, t1;   \
	VMULPD    alr, acc, t0;   \
	VMULPD    ali, t1, t1;    \
	VADDSUBPD t1, t0, t0;     \
	VADDPD    off(DI), t0, t0; \
	VMOVUPD   t0, off(DI)

// LOADA: broadcast op(A)[i,p] from the A cursor SI, conjugating through
// the sign mask in Y13.
#define LOADA \
	VBROADCASTSD 0(SI), Y4;  \
	VBROADCASTSD 8(SI), Y5;  \
	VXORPD       Y13, Y5, Y5

// func zgemmTileAVX2(args *zgemmArgs)
TEXT ·zgemmTileAVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), AX
	MOVQ ARG_A(AX), R8       // row cursor of op(A)
	MOVQ ARG_ACOL(AX), R10
	MOVQ ARG_B(AX), R11
	MOVQ ARG_LDB(AX), R12
	MOVQ ARG_C(AX), R13      // row cursor of C
	MOVQ ARG_M(AX), CX
	VBROADCASTSD ARG_CONJ(AX), Y13
	VBROADCASTSD ARG_ALRE(AX), Y14
	VBROADCASTSD ARG_ALIM(AX), Y15

gemmrow:
	MOVQ ARG_N(AX), BX       // columns left in this row
	XORQ R9, R9              // byte offset of the current column strip

gemm8:
	CMPQ BX, $8
	JLT  gemm2
	MOVQ R8, SI
	LEAQ (R11)(R9*1), DI
	MOVQ ARG_KB(AX), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

gemm8p:
	LOADA
	MAC(0, Y0, Y4, Y5, Y6, Y7, $5)
	MAC(32, Y1, Y4, Y5, Y8, Y9, $5)
	MAC(64, Y2, Y4, Y5, Y6, Y7, $5)
	MAC(96, Y3, Y4, Y5, Y8, Y9, $5)
	ADDQ R10, SI
	ADDQ R12, DI
	DECQ DX
	JNZ  gemm8p

	LEAQ (R13)(R9*1), DI
	FLUSH(0, Y0, Y14, Y15, Y6, Y7, $5)
	FLUSH(32, Y1, Y14, Y15, Y8, Y9, $5)
	FLUSH(64, Y2, Y14, Y15, Y6, Y7, $5)
	FLUSH(96, Y3, Y14, Y15, Y8, Y9, $5)
	ADDQ $128, R9
	SUBQ $8, BX
	JMP  gemm8

gemm2:
	CMPQ BX, $2
	JLT  gemm1
	MOVQ R8, SI
	LEAQ (R11)(R9*1), DI
	MOVQ ARG_KB(AX), DX
	VXORPD Y0, Y0, Y0

gemm2p:
	LOADA
	MAC(0, Y0, Y4, Y5, Y6, Y7, $5)
	ADDQ R10, SI
	ADDQ R12, DI
	DECQ DX
	JNZ  gemm2p

	LEAQ (R13)(R9*1), DI
	FLUSH(0, Y0, Y14, Y15, Y6, Y7, $5)
	ADDQ $32, R9
	SUBQ $2, BX
	JMP  gemm2

gemm1:
	TESTQ BX, BX
	JZ    gemmnext
	MOVQ R8, SI
	LEAQ (R11)(R9*1), DI
	MOVQ ARG_KB(AX), DX
	VXORPD X0, X0, X0

gemm1p:
	LOADA
	MAC(0, X0, X4, X5, X6, X7, $1)
	ADDQ R10, SI
	ADDQ R12, DI
	DECQ DX
	JNZ  gemm1p

	LEAQ (R13)(R9*1), DI
	FLUSH(0, X0, X14, X15, X6, X7, $1)

gemmnext:
	ADDQ ARG_AROW(AX), R8
	ADDQ ARG_LDC(AX), R13
	DECQ CX
	JNZ  gemmrow
	VZEROUPPER
	RET
