#include "textflag.h"

// AVX2 tile of dkernels.go. Like zkernels_amd64.s it uses NO fused
// multiply-add: every product is rounded by VMULPD/VMULSD before VADDPD/
// VADDSD adds it, so each C element walks the reference's IEEE chain —
// c += a·b in ascending p — bit for bit (`make asm-nofma` greps for it).
//
// Four rows of C are held in registers across the whole p loop, in column
// strips of 8 (two YMM per row), then 4 (one YMM per row), then single
// columns (XMM scalars). Rows 1..3 of A and C are reached through byte
// offsets, which the wrapper clamps for a block of fewer than four rows.
// R14/R15 are left alone.

// dgemmArgs field offsets (dkernels.go; TestDGEMMArgsLayout pins them).
#define DARG_A      0
#define DARG_AOFF1  8
#define DARG_AOFF2  16
#define DARG_AOFF3  24
#define DARG_B      32
#define DARG_LDB    40
#define DARG_C      48
#define DARG_COFF1  56
#define DARG_COFF2  64
#define DARG_COFF3  72
#define DARG_N      80
#define DARG_K      88

// DSTRIP: point SI at the A rows, DI at this strip's columns of B (the
// strip's byte offset is DX − C) and load the p count.
#define DSTRIP \
	MOVQ DARG_A(AX), SI;  \
	MOVQ DX, DI;          \
	SUBQ DARG_C(AX), DI;  \
	ADDQ DARG_B(AX), DI;  \
	MOVQ DARG_K(AX), CX

// DNEXT: step to the next p.
#define DNEXT \
	ADDQ $8, SI;          \
	ADDQ DARG_LDB(AX), DI; \
	DECQ CX

// DROW8: one row of the 8-wide strip, c0|c1 += a·(Y8|Y9).
#define DROW8(amem, c0, c1) \
	VBROADCASTSD amem, Y10; \
	VMULPD Y8, Y10, Y11;    \
	VMULPD Y9, Y10, Y12;    \
	VADDPD Y11, c0, c0;     \
	VADDPD Y12, c1, c1

// DROW4: one row of the 4-wide strip, c0 += a·Y8.
#define DROW4(amem, c0) \
	VBROADCASTSD amem, Y10; \
	VMULPD Y8, Y10, Y11;    \
	VADDPD Y11, c0, c0

// DROW1: one row of the single column, c0 += a·X8.
#define DROW1(amem, c0) \
	VMULSD amem, X8, X11;   \
	VADDSD X11, c0, c0

// func dgemmTile4AVX2(args *dgemmArgs)
TEXT ·dgemmTile4AVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), AX
	MOVQ DARG_AOFF1(AX), R8
	MOVQ DARG_AOFF2(AX), R9
	MOVQ DARG_AOFF3(AX), R10
	MOVQ DARG_COFF1(AX), R11
	MOVQ DARG_COFF2(AX), R12
	MOVQ DARG_COFF3(AX), R13
	MOVQ DARG_C(AX), DX      // C cursor: first row, current column strip
	MOVQ DARG_N(AX), BX      // columns left

d8:
	CMPQ BX, $8
	JLT  d4
	VMOVUPD 0(DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 0(DX)(R11*1), Y2
	VMOVUPD 32(DX)(R11*1), Y3
	VMOVUPD 0(DX)(R12*1), Y4
	VMOVUPD 32(DX)(R12*1), Y5
	VMOVUPD 0(DX)(R13*1), Y6
	VMOVUPD 32(DX)(R13*1), Y7
	DSTRIP

d8p:
	VMOVUPD 0(DI), Y8
	VMOVUPD 32(DI), Y9
	DROW8(0(SI), Y0, Y1)
	DROW8(0(SI)(R8*1), Y2, Y3)
	DROW8(0(SI)(R9*1), Y4, Y5)
	DROW8(0(SI)(R10*1), Y6, Y7)
	DNEXT
	JNZ  d8p

	// Rows that repeat the block's last row hold the same bits; storing in
	// row order keeps that harmless.
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 0(DX)(R11*1)
	VMOVUPD Y3, 32(DX)(R11*1)
	VMOVUPD Y4, 0(DX)(R12*1)
	VMOVUPD Y5, 32(DX)(R12*1)
	VMOVUPD Y6, 0(DX)(R13*1)
	VMOVUPD Y7, 32(DX)(R13*1)
	ADDQ $64, DX
	SUBQ $8, BX
	JMP  d8

d4:
	CMPQ BX, $4
	JLT  d1
	VMOVUPD 0(DX), Y0
	VMOVUPD 0(DX)(R11*1), Y2
	VMOVUPD 0(DX)(R12*1), Y4
	VMOVUPD 0(DX)(R13*1), Y6
	DSTRIP

d4p:
	VMOVUPD 0(DI), Y8
	DROW4(0(SI), Y0)
	DROW4(0(SI)(R8*1), Y2)
	DROW4(0(SI)(R9*1), Y4)
	DROW4(0(SI)(R10*1), Y6)
	DNEXT
	JNZ  d4p

	VMOVUPD Y0, 0(DX)
	VMOVUPD Y2, 0(DX)(R11*1)
	VMOVUPD Y4, 0(DX)(R12*1)
	VMOVUPD Y6, 0(DX)(R13*1)
	ADDQ $32, DX
	SUBQ $4, BX

d1:
	TESTQ BX, BX
	JZ    ddone
	VMOVSD 0(DX), X0
	VMOVSD 0(DX)(R11*1), X2
	VMOVSD 0(DX)(R12*1), X4
	VMOVSD 0(DX)(R13*1), X6
	DSTRIP

d1p:
	VMOVSD 0(DI), X8
	DROW1(0(SI), X0)
	DROW1(0(SI)(R8*1), X2)
	DROW1(0(SI)(R9*1), X4)
	DROW1(0(SI)(R10*1), X6)
	DNEXT
	JNZ  d1p

	VMOVSD X0, 0(DX)
	VMOVSD X2, 0(DX)(R11*1)
	VMOVSD X4, 0(DX)(R12*1)
	VMOVSD X6, 0(DX)(R13*1)
	ADDQ $8, DX
	DECQ BX
	JMP  d1

ddone:
	VZEROUPPER
	RET
