#include "textflag.h"

// AVX2 kernels of zkernels.go, and its AVX-512 CGEMM tile at the end. The
// one rule everything here rests on: NO fused multiply-add. Every product is
// rounded by VMULPD before VADDPD / VADDSUBPD adds it, exactly like the Go
// references, so each lane computes the reference's IEEE chain bit for bit
// (`make asm-nofma` greps for it).
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

// The AVX-512 CGEMM tile (AVX512F only). A ZMM register holds four
// complex128 values. AVX-512 has no VADDSUBPD, so the sign flip moves onto a
// swapped twin of the B row, formed once per p and shared by every row of the
// register block:
//
//	B    = [br  bi  ...]
//	twin = swap(B) ^ mask = [−bi  br  ...]     (mask [−,+], NoTrans)
//	B·AR + twin·AI        = [br·ar − bi·ai   bi·ar + br·ai]
//
// In IEEE arithmetic x·(−y) = −(x·y) and a + (−b) = a − b, so each lane is
// the reference's chain bit for bit. For ConjTrans the mask is [+,−], which
// gives conj(a)·b without touching A: op(A)'s real and imaginary parts enter
// unchanged, as embedded broadcasts. The sign flips use VPXORQ (AVX512F);
// VXORPD on ZMM would need AVX512DQ.
//
// Register block: 4 rows × 8 columns of C partials in Z0–Z7 (row r, half h
// in Z(2r+h)) for the whole p block, then 2- and 1-row blocks for the row
// tail — never a repeated row, since the flush adds into C. A column block
// of 5–8 values masks its second ZMM with K1, one of 1–4 values is a 4-wide
// block under K1; masked-off lanes are neither read nor written.
//
// Registers: R8/R13 row-block cursors of op(A)/C, R9 byte offset of the
// column block, R10 = aRow, R11 = 3·aRow, R12 = ldb, CX rows left, BX
// columns left, SI/DI/DX the A cursor, B (then C) cursor and p count.
// Z8/Z9 the B row, Z10/Z11 its twin, Z12–Z27 products, Z28/Z29 alpha re/im,
// Z30 the flush twin mask [−,+], Z31 the B twin mask.

// zsignRe<> is one complex128 lane pair of the twin mask [−,+].
DATA  zsignRe<>+0(SB)/8, $0x8000000000000000
DATA  zsignRe<>+8(SB)/8, $0
GLOBL zsignRe<>(SB), RODATA|NOPTR, $16

// zlaneMask<>[q] is the opmask of q complex128 values (2q float64 lanes).
DATA  zlaneMask<>+0(SB)/2, $0x00
DATA  zlaneMask<>+2(SB)/2, $0x03
DATA  zlaneMask<>+4(SB)/2, $0x0f
DATA  zlaneMask<>+6(SB)/2, $0x3f
DATA  zlaneMask<>+8(SB)/2, $0xff
GLOBL zlaneMask<>(SB), RODATA|NOPTR, $10

// TWIN: t = swap(v) with the lanes of mask sign-flipped.
#define TWIN(v, mask, t) \
	VPERMILPD $0x55, v, t; \
	VPXORQ    mask, t, t

// COLMASK8 / COLMASK4: K1 = the mask of the block's last ZMM, for a block of
// min(BX, 8) columns (BX > 4) or of BX ≤ 4 columns.
#define COLMASK8 \
	LEAQ    -4(BX), DX;          \
	MOVQ    $4, DI;              \
	CMPQ    DX, DI;              \
	CMOVQGT DI, DX;              \
	LEAQ    zlaneMask<>(SB), DI; \
	KMOVW   (DI)(DX*2), K1

#define COLMASK4 \
	LEAQ  zlaneMask<>(SB), DI; \
	KMOVW (DI)(BX*2), K1

// BEGINP: cursors and count of the p loop of one block.
#define BEGINP \
	MOVQ R8, SI;        \
	MOVQ ARG_B(AX), DI; \
	ADDQ R9, DI;        \
	MOVQ ARG_KB(AX), DX

// NEXTP: step the cursors to p+1 and count down.
#define NEXTP \
	ADDQ ARG_ACOL(AX), SI; \
	ADDQ R12, DI;          \
	DECQ DX

// LOADB8 / LOADB4: B[p, j..j+8) (second half under K1) or B[p, j..j+4)
// (under K1) from the B cursor DI, and its twin.
#define LOADB8 \
	VMOVUPD   0(DI), Z8;      \
	VMOVUPD.Z 64(DI), K1, Z9; \
	TWIN(Z8, Z31, Z10);       \
	TWIN(Z9, Z31, Z11)

#define LOADB4 \
	VMOVUPD.Z 0(DI), K1, Z8; \
	TWIN(Z8, Z31, Z10)

// MAC8 / MAC4: acc += op(A)[i,p]·B[p, j..] for the row whose op(A) value has
// its real part at re and its imaginary part at im.
#define MAC8(re, im, acc0, acc1, t0, t1, t2, t3) \
	VMULPD.BCST re, Z8, t0;     \
	VMULPD.BCST im, Z10, t1;    \
	VMULPD.BCST re, Z9, t2;     \
	VMULPD.BCST im, Z11, t3;    \
	VADDPD      t1, t0, t0;     \
	VADDPD      t3, t2, t2;     \
	VADDPD      t0, acc0, acc0; \
	VADDPD      t2, acc1, acc1

#define MAC4(re, im, acc, t0, t1) \
	VMULPD.BCST re, Z8, t0;  \
	VMULPD.BCST im, Z10, t1; \
	VADDPD      t1, t0, t0;  \
	VADDPD      t0, acc, acc

// FLUSHZ / FLUSHZK: C[i, j..j+4) += alpha·acc at off(DI), the latter under K1.
#define ALPHA(acc, t0, t1) \
	TWIN(acc, Z30, t1);  \
	VMULPD Z28, acc, t0; \
	VMULPD Z29, t1, t1;  \
	VADDPD t1, t0, t0

#define FLUSHZ(off, acc, t0, t1) \
	ALPHA(acc, t0, t1);      \
	VADDPD  off(DI), t0, t0; \
	VMOVUPD t0, off(DI)

#define FLUSHZK(off, acc, t0, t1) \
	ALPHA(acc, t0, t1);        \
	VMOVUPD.Z off(DI), K1, t1; \
	VADDPD    t1, t0, t0;      \
	VMOVUPD   t0, K1, off(DI)

#define FLUSH8(acc0, acc1) \
	FLUSHZ(0, acc0, Z12, Z13); \
	FLUSHZK(64, acc1, Z14, Z15)

// func zgemmTileAVX512(args *zgemmArgs)
TEXT ·zgemmTileAVX512(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), AX
	MOVQ ARG_A(AX), R8
	MOVQ ARG_AROW(AX), R10
	LEAQ (R10)(R10*2), R11
	MOVQ ARG_LDB(AX), R12
	MOVQ ARG_C(AX), R13
	MOVQ ARG_M(AX), CX
	VBROADCASTSD    ARG_ALRE(AX), Z28
	VBROADCASTSD    ARG_ALIM(AX), Z29
	VBROADCASTF32X4 zsignRe<>(SB), Z30
	VPBROADCASTQ    ARG_CONJ(AX), Z31
	VPXORQ          Z30, Z31, Z31    // [−,+] ^ conj: [+,−] for ConjTrans

z4rows:
	CMPQ CX, $4
	JLT  z2rows
	MOVQ ARG_N(AX), BX
	XORQ R9, R9

z4col:
	CMPQ BX, $4
	JLE  z4col4
	COLMASK8
	BEGINP
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

z4p8:
	LOADB8
	MAC8(0(SI), 8(SI), Z0, Z1, Z12, Z13, Z14, Z15)
	MAC8(0(SI)(R10*1), 8(SI)(R10*1), Z2, Z3, Z16, Z17, Z18, Z19)
	MAC8(0(SI)(R10*2), 8(SI)(R10*2), Z4, Z5, Z20, Z21, Z22, Z23)
	MAC8(0(SI)(R11*1), 8(SI)(R11*1), Z6, Z7, Z24, Z25, Z26, Z27)
	NEXTP
	JNZ  z4p8

	LEAQ (R13)(R9*1), DI
	FLUSH8(Z0, Z1)
	ADDQ ARG_LDC(AX), DI
	FLUSH8(Z2, Z3)
	ADDQ ARG_LDC(AX), DI
	FLUSH8(Z4, Z5)
	ADDQ ARG_LDC(AX), DI
	FLUSH8(Z6, Z7)
	ADDQ $128, R9
	SUBQ $8, BX
	JGT  z4col
	JMP  z4next

z4col4:
	COLMASK4
	BEGINP
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

z4p4:
	LOADB4
	MAC4(0(SI), 8(SI), Z0, Z12, Z13)
	MAC4(0(SI)(R10*1), 8(SI)(R10*1), Z1, Z14, Z15)
	MAC4(0(SI)(R10*2), 8(SI)(R10*2), Z2, Z16, Z17)
	MAC4(0(SI)(R11*1), 8(SI)(R11*1), Z3, Z18, Z19)
	NEXTP
	JNZ  z4p4

	LEAQ (R13)(R9*1), DI
	FLUSHZK(0, Z0, Z12, Z13)
	ADDQ ARG_LDC(AX), DI
	FLUSHZK(0, Z1, Z12, Z13)
	ADDQ ARG_LDC(AX), DI
	FLUSHZK(0, Z2, Z12, Z13)
	ADDQ ARG_LDC(AX), DI
	FLUSHZK(0, Z3, Z12, Z13)

z4next:
	LEAQ (R8)(R10*4), R8
	MOVQ ARG_LDC(AX), DX
	LEAQ (R13)(DX*4), R13
	SUBQ $4, CX
	JMP  z4rows

z2rows:
	CMPQ CX, $2
	JLT  z1row
	MOVQ ARG_N(AX), BX
	XORQ R9, R9

z2col:
	CMPQ BX, $4
	JLE  z2col4
	COLMASK8
	BEGINP
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

z2p8:
	LOADB8
	MAC8(0(SI), 8(SI), Z0, Z1, Z12, Z13, Z14, Z15)
	MAC8(0(SI)(R10*1), 8(SI)(R10*1), Z2, Z3, Z16, Z17, Z18, Z19)
	NEXTP
	JNZ  z2p8

	LEAQ (R13)(R9*1), DI
	FLUSH8(Z0, Z1)
	ADDQ ARG_LDC(AX), DI
	FLUSH8(Z2, Z3)
	ADDQ $128, R9
	SUBQ $8, BX
	JGT  z2col
	JMP  z2next

z2col4:
	COLMASK4
	BEGINP
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1

z2p4:
	LOADB4
	MAC4(0(SI), 8(SI), Z0, Z12, Z13)
	MAC4(0(SI)(R10*1), 8(SI)(R10*1), Z1, Z14, Z15)
	NEXTP
	JNZ  z2p4

	LEAQ (R13)(R9*1), DI
	FLUSHZK(0, Z0, Z12, Z13)
	ADDQ ARG_LDC(AX), DI
	FLUSHZK(0, Z1, Z12, Z13)

z2next:
	LEAQ (R8)(R10*2), R8
	MOVQ ARG_LDC(AX), DX
	LEAQ (R13)(DX*2), R13
	SUBQ $2, CX

z1row:
	TESTQ CX, CX
	JZ    zdone
	MOVQ  ARG_N(AX), BX
	XORQ  R9, R9

z1col:
	CMPQ BX, $4
	JLE  z1col4
	COLMASK8
	BEGINP
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1

z1p8:
	LOADB8
	MAC8(0(SI), 8(SI), Z0, Z1, Z12, Z13, Z14, Z15)
	NEXTP
	JNZ  z1p8

	LEAQ (R13)(R9*1), DI
	FLUSH8(Z0, Z1)
	ADDQ $128, R9
	SUBQ $8, BX
	JGT  z1col
	JMP  zdone

z1col4:
	COLMASK4
	BEGINP
	VPXORQ Z0, Z0, Z0

z1p4:
	LOADB4
	MAC4(0(SI), 8(SI), Z0, Z12, Z13)
	NEXTP
	JNZ  z1p4

	LEAQ    (R13)(R9*1), DI
	FLUSHZK(0, Z0, Z12, Z13)

zdone:
	VZEROUPPER
	RET
