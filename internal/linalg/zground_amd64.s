#include "textflag.h"

// AVX2 kernels of zground.go. The rule of zkernels_amd64.s holds here: NO
// fused multiply-add, every product rounded by VMULPD before VADDPD,
// VSUBPD or VADDSUBPD takes it, so each lane is its reference's IEEE chain
// (`make asm-nofma` greps for it).
//
// Every kernel walks the rows of an orbital-fastest field in ascending g
// and, inside a row, its columns two at a time in a YMM ([re0 im0 re1 im1],
// one orbital per complex lane), then a last odd column in an XMM. A
// product of two per-lane values x·y is the textbook one:
//
//	t1 = x·dup(re y)     = [xr·yr  xi·yr]
//	t2 = swap(x)·dup(im y) = [xi·yi  xr·yi]
//	VADDSUBPD t2, t1     = [xr·yr − xi·yi   xi·yr + xr·yi]
//
// with dup(im y) = 0 for a real coefficient complex(c, 0) — the 0·x terms
// are computed, not skipped — and dup(im y) sign-flipped for a conjugate
// (x·(−y) = −(x·y) and a − (−b) = a + b in IEEE arithmetic). Each lane's
// sum over g is one chain in ascending g: in memory (the caller's slice,
// one load-add-store per row) for ZDotRows and the stencil, in a register
// for a strip of the column kernels. Squared norms are scalar:
// sum + (re·re + im·im). R14/R15 are left alone.

// CONJDOT: the sums at (acc)(off) += conj(x)·y, x per lane in vx, y per lane
// in vy (vx is clobbered); t0, t1 scratch, sgn the sign mask.
#define CONJDOT(acc, off, vx, vy, t0, t1, sgn, dupi, swp) \
	VMOVDDUP  vx, t0;          \
	VPERMILPD dupi, vx, t1;    \
	VXORPD    sgn, t1, t1;     \
	VMULPD    t0, vy, t0;      \
	VPERMILPD swp, vy, vx;     \
	VMULPD    t1, vx, t1;      \
	VADDSUBPD t1, t0, t0;      \
	VADDPD    (acc)(off*1), t0, t0; \
	VMOVUPD   t0, (acc)(off*1)

// func zdotRowsAVX2(acc, x, y *complex128, norb, rows, ncols int)
TEXT ·zdotRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ norb+24(FP), R8
	SHLQ $4, R8                  // row bytes
	MOVQ rows+32(FP), CX
	MOVQ ncols+40(FP), R9
	SHLQ $4, R9                  // bytes of the column range
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15       // sign mask
	VXORPD X0, X0, X0
	MOVQ   R9, BX

dzero:
	TESTQ   BX, BX
	JZ      drow
	SUBQ    $16, BX
	VMOVUPD X0, (DI)(BX*1)
	JMP     dzero

drow:
	XORQ R10, R10

d2:
	LEAQ 16(R10), BX
	CMPQ BX, R9
	JGE  d1
	VMOVUPD (SI)(R10*1), Y0
	VMOVUPD (DX)(R10*1), Y1
	CONJDOT(DI, R10, Y0, Y1, Y2, Y3, Y15, $15, $5)
	ADDQ $32, R10
	JMP  d2

d1:
	CMPQ R10, R9
	JGE  dnext
	VMOVUPD (SI)(R10*1), X0
	VMOVUPD (DX)(R10*1), X1
	CONJDOT(DI, R10, X0, X1, X2, X3, X15, $3, $1)

dnext:
	ADDQ R8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  drow
	VZEROUPPER
	RET

// zdotColArgs field offsets (zground.go; TestZDotColArgsLayout pins them).
#define DARG_X     0
#define DARG_Y     8
#define DARG_ACC   16
#define DARG_NORB  24
#define DARG_ROWS  32
#define DARG_NCOLS 40
#define DARG_SCALE 48
#define DARG_DOSC  56

// The column kernels work in strips of up to 8 columns (4 YMM), the last
// odd column of a strip in an XMM: a strip's accumulators (or its
// coefficients) live in registers across the whole row sweep, and the
// chunk count is tested per row (a perfectly predicted branch), so one row
// of a strip is straight-line code. STRIP sets R12 = YMM chunks and R13 =
// byte offset of the odd column (−1 if none) for the columns left in R9
// (R10 clobbered).
#define STRIP \
	MOVQ    R9, R12;        \
	MOVQ    $8, R10;        \
	CMPQ    R12, R10;       \
	CMOVQGT R10, R12;       \
	MOVQ    R12, R13;       \
	ANDQ    $-2, R13;       \
	SHLQ    $4, R13;        \
	MOVQ    $-1, R10;       \
	TESTQ   $1, R12;        \
	CMOVQEQ R10, R13;       \
	SHRQ    $1, R12

// BCASTDOT: acc += conj(x)·y for the chunk at off(DX), x broadcast in Y5
// (re) and Y6 (−im); Y7, Y8 scratch.
#define BCASTDOT(off, acc, v, t, swp) \
	VMOVUPD   off(DX), v;   \
	VPERMILPD swp, v, t;    \
	VMULPD    Y5, v, v;     \
	VMULPD    Y6, t, t;     \
	VADDSUBPD t, v, v;      \
	VADDPD    v, acc, acc

// func zdotColAVX2(args *zdotColArgs)
//
// AX args, BX byte offset of the strip, CX rows left, SI/DX the col/lo
// cursors of the row, DI the strip's acc, R9 columns left, R11 scale flag
// (cleared after the first strip: the column is scaled once).
TEXT ·zdotColAVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), AX
	MOVQ DARG_NORB(AX), R8
	SHLQ $4, R8                  // row bytes
	MOVQ DARG_NCOLS(AX), R9
	MOVQ DARG_DOSC(AX), R11
	MOVQ DARG_ACC(AX), DI
	XORQ BX, BX
	VPCMPEQQ Y15, Y15, Y15
	VPSLLQ   $63, Y15, Y15       // sign mask
	VBROADCASTSD DARG_SCALE(AX), Y14
	VXORPD   Y13, Y13, Y13

cstrip:
	STRIP
	MOVQ DARG_X(AX), SI
	MOVQ DARG_Y(AX), DX
	ADDQ BX, DX
	MOVQ DARG_ROWS(AX), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4

crow:
	TESTQ R11, R11
	JZ    cdots
	// x[col] = x[col]·complex(scale, 0)
	VMOVUPD   (SI), X5
	VPERMILPD $1, X5, X6
	VMULPD    X14, X5, X5
	VMULPD    X13, X6, X6
	VADDSUBPD X6, X5, X5
	VMOVUPD   X5, (SI)

cdots:
	VBROADCASTSD (SI), Y5
	VBROADCASTSD 8(SI), Y6
	VXORPD       Y15, Y6, Y6
	CMPQ R12, $1
	JLT  ctail
	BCASTDOT(0, Y0, Y7, Y8, $5)
	CMPQ R12, $2
	JLT  ctail
	BCASTDOT(32, Y1, Y7, Y8, $5)
	CMPQ R12, $3
	JLT  ctail
	BCASTDOT(64, Y2, Y7, Y8, $5)
	CMPQ R12, $4
	JLT  ctail
	BCASTDOT(96, Y3, Y7, Y8, $5)

ctail:
	TESTQ R13, R13
	JS    cnext
	VMOVUPD   (DX)(R13*1), X7
	VPERMILPD $1, X7, X8
	VMULPD    X5, X7, X7
	VMULPD    X6, X8, X8
	VADDSUBPD X8, X7, X7
	VADDPD    X7, X4, X4

cnext:
	ADDQ R8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  crow

	// Store the strip's sums.
	CMPQ R12, $1
	JLT  cstoretail
	VMOVUPD Y0, 0(DI)
	CMPQ R12, $2
	JLT  cstoretail
	VMOVUPD Y1, 32(DI)
	CMPQ R12, $3
	JLT  cstoretail
	VMOVUPD Y2, 64(DI)
	CMPQ R12, $4
	JLT  cstoretail
	VMOVUPD Y3, 96(DI)

cstoretail:
	TESTQ R13, R13
	JS    cstripnext
	VMOVUPD X4, (DI)(R13*1)

cstripnext:
	XORQ R11, R11
	ADDQ $128, BX
	ADDQ $128, DI
	SUBQ $8, R9
	JG   cstrip
	VZEROUPPER
	RET

// AXPY: the chunk at off(DX) −= a·x with a in va and swap(a) in vs, x
// broadcast in Y10 (re) and Y11 (im); Y13–Y15 scratch.
#define AXPY(off, va, vs, t0, t1, vd) \
	VMULPD    Y10, va, t0;  \
	VMULPD    Y11, vs, t1;  \
	VADDSUBPD t1, t0, t0;   \
	VMOVUPD   off(DX), vd;  \
	VSUBPD    t0, vd, vd;   \
	VMOVUPD   vd, off(DX)

// NORM2: X12 += re·re + im·im of the complex value at 0(reg); t0, t1 scratch.
#define NORM2(reg, t0, t1) \
	VMOVSD 0(reg), t0;        \
	VMOVSD 8(reg), t1;        \
	VMULSD t0, t0, t0;        \
	VMULSD t1, t1, t1;        \
	VADDSD t1, t0, t0;        \
	VADDSD t0, X12, X12

// LOADA: va = a chunk at off(DI), vs = swap(va).
#define LOADA(off, va, vs, swp) \
	VMOVUPD   off(DI), va;  \
	VPERMILPD swp, va, vs

// func zaxpyColAVX2(x, xlo, a *complex128, norb, rows, ncols int) float64
//
// BX byte offset of the strip, CX rows left, SI/DX the col/lo cursors of the
// row, DI the strip's coefficients (Y0–Y3, swapped Y4–Y7, odd X8/X9), R9
// columns left, R11 set on the first strip only, which takes the norm.
TEXT ·zaxpyColAVX2(SB), NOSPLIT, $0-56
	MOVQ norb+24(FP), R8
	SHLQ $4, R8
	MOVQ ncols+40(FP), R9
	MOVQ a+16(FP), DI
	XORQ BX, BX
	MOVQ $1, R11
	VXORPD X12, X12, X12

astrip:
	STRIP
	CMPQ R12, $1
	JLT  aloadtail
	LOADA(0, Y0, Y4, $5)
	CMPQ R12, $2
	JLT  aloadtail
	LOADA(32, Y1, Y5, $5)
	CMPQ R12, $3
	JLT  aloadtail
	LOADA(64, Y2, Y6, $5)
	CMPQ R12, $4
	JLT  aloadtail
	LOADA(96, Y3, Y7, $5)

aloadtail:
	TESTQ R13, R13
	JS    arows
	VMOVUPD   (DI)(R13*1), X8
	VPERMILPD $1, X8, X9

arows:
	MOVQ x+0(FP), SI
	MOVQ xlo+8(FP), DX
	ADDQ BX, DX
	MOVQ rows+32(FP), CX

arow:
	VBROADCASTSD (SI), Y10
	VBROADCASTSD 8(SI), Y11
	CMPQ R12, $1
	JLT  atail
	AXPY(0, Y0, Y4, Y13, Y14, Y15)
	CMPQ R12, $2
	JLT  atail
	AXPY(32, Y1, Y5, Y13, Y14, Y15)
	CMPQ R12, $3
	JLT  atail
	AXPY(64, Y2, Y6, Y13, Y14, Y15)
	CMPQ R12, $4
	JLT  atail
	AXPY(96, Y3, Y7, Y13, Y14, Y15)

atail:
	TESTQ R13, R13
	JS    anorm
	VMULPD    X10, X8, X13
	VMULPD    X11, X9, X14
	VADDSUBPD X14, X13, X13
	VMOVUPD   (DX)(R13*1), X15
	VSUBPD    X13, X15, X15
	VMOVUPD   X15, (DX)(R13*1)

anorm:
	TESTQ R11, R11
	JZ    anext
	NORM2(DX, X13, X14)

anext:
	ADDQ R8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  arow

	XORQ R11, R11
	ADDQ $128, BX
	ADDQ $128, DI
	SUBQ $8, R9
	JG   astrip
	VMOVSD X12, ret+48(FP)
	VZEROUPPER
	RET

// RESID: the row chunk w at (SI)(R10) −= complex(dtau,0)·(hw − e·w), hw at
// (DX)(R10), e per lane at (DI)(R10); Y14 = dtau, Y13 = 0.
#define RESID(vw, vh, ve, t0, t1, dt, z, dupi, swp) \
	VMOVUPD   (SI)(R10*1), vw;  \
	VMOVUPD   (DI)(R10*1), ve;  \
	VMOVDDUP  ve, t0;           \
	VPERMILPD dupi, ve, ve;     \
	VPERMILPD swp, vw, t1;      \
	VMULPD    t0, vw, t0;       \
	VMULPD    ve, t1, t1;       \
	VADDSUBPD t1, t0, t0;       \
	VMOVUPD   (DX)(R10*1), vh;  \
	VSUBPD    t0, vh, vh;       \
	VPERMILPD swp, vh, t1;      \
	VMULPD    dt, vh, vh;       \
	VMULPD    z, t1, t1;        \
	VADDSUBPD t1, vh, vh;       \
	VSUBPD    vh, vw, vw;       \
	VMOVUPD   vw, (SI)(R10*1)

// func zresidRowsAVX2(w, hw, e *complex128, norb, rows int, dtau float64) float64
TEXT ·zresidRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), SI
	MOVQ hw+8(FP), DX
	MOVQ e+16(FP), DI
	MOVQ norb+24(FP), R8
	SHLQ $4, R8
	MOVQ rows+32(FP), CX
	VBROADCASTSD dtau+40(FP), Y14
	VXORPD Y13, Y13, Y13
	VXORPD X12, X12, X12

rrow:
	XORQ R10, R10

r2:
	LEAQ 16(R10), BX
	CMPQ BX, R8
	JGE  r1
	RESID(Y0, Y1, Y2, Y3, Y4, Y14, Y13, $15, $5)
	ADDQ $32, R10
	JMP  r2

r1:
	CMPQ R10, R8
	JGE  rnorm
	RESID(X0, X1, X2, X3, X4, X14, X13, $3, $1)

rnorm:
	NORM2(SI, X4, X5)
	ADDQ R8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  rrow
	VMOVSD X12, ret+48(FP)
	VZEROUPPER
	RET

// zstencilArgs field offsets (zground.go; TestZStencilArgsLayout pins them).
#define SARG_DST  0
#define SARG_SRC  8
#define SARG_XP   16
#define SARG_XM   24
#define SARG_YP   32
#define SARG_YM   40
#define SARG_ZP   48
#define SARG_ZM   56
#define SARG_VLOC 64
#define SARG_ACC  72
#define SARG_NORB 80
#define SARG_ROWS 88
#define SARG_DIAG 96
#define SARG_XPR  104
#define SARG_XPI  112
#define SARG_XMR  120
#define SARG_XMI  128
#define SARG_Y    136
#define SARG_Z    144

// NBROW: reg = src + nb[g]·rowbytes for the neighbour table at field f,
// with g in BX and the row bytes in R8.
#define NBROW(f, reg) \
	MOVQ    f(AX), reg;          \
	MOVLQZX (reg)(BX*4), reg;    \
	IMULQ   R8, reg;             \
	ADDQ    SARG_SRC(AX), reg

// CMUL: v = v·(cr + i·ci) with cr, ci broadcast; t scratch.
#define CMUL(v, t, cr, ci, swp) \
	VPERMILPD swp, v, t;  \
	VMULPD    cr, v, v;   \
	VMULPD    ci, t, t;   \
	VADDSUBPD t, v, v

// SHELL: v0 = the stencil shell of one chunk at byte R10 of the row
// (neighbour rows R11 R12 R13 DX R9 CX), v1 = the src chunk (row SI).
// Constants: Y14 0, Y13/Y12 XP, Y11/Y10 XM, Y9 Y, Y8 Z.
#define SHELL(v0, v1, v2, k14, k13, k12, k11, k10, k9, k8, swp) \
	VMOVUPD   (R11)(R10*1), v0;        \
	CMUL(v0, v1, k13, k12, swp);       \
	VMOVUPD   (R12)(R10*1), v1;        \
	CMUL(v1, v2, k11, k10, swp);       \
	VADDPD    v1, v0, v0;              \
	VMOVUPD   (R13)(R10*1), v1;        \
	VADDPD    (DX)(R10*1), v1, v1;     \
	CMUL(v1, v2, k9, k14, swp);        \
	VADDPD    v1, v0, v0;              \
	VMOVUPD   (R9)(R10*1), v1;         \
	VADDPD    (CX)(R10*1), v1, v1;     \
	CMUL(v1, v2, k8, k14, swp);        \
	VADDPD    v1, v0, v0;              \
	VMOVUPD   (SI)(R10*1), v1

// DIAGROW: v0 = vg·v1 + v0 (Y15 = vg, Y14 = 0), the first shell's row.
#define DIAGROW(v0, v1, v2, v3, k15, k14, swp) \
	VMOVAPD   v1, v2;             \
	CMUL(v2, v3, k15, k14, swp);  \
	VADDPD    v0, v2, v0

// func zstencilRowsAVX2(args *zstencilArgs)
TEXT ·zstencilRowsAVX2(SB), NOSPLIT, $8-8
	MOVQ args+0(FP), AX
	MOVQ SARG_NORB(AX), R8
	SHLQ $4, R8                  // row bytes
	VBROADCASTSD SARG_XPR(AX), Y13
	VBROADCASTSD SARG_XPI(AX), Y12
	VBROADCASTSD SARG_XMR(AX), Y11
	VBROADCASTSD SARG_XMI(AX), Y10
	VBROADCASTSD SARG_Y(AX), Y9
	VBROADCASTSD SARG_Z(AX), Y8
	VXORPD       Y14, Y14, Y14
	VPCMPEQQ     Y7, Y7, Y7
	VPSLLQ       $63, Y7, Y7
	MOVQ SARG_ACC(AX), DI
	TESTQ DI, DI
	JZ    snoacc
	VXORPD X0, X0, X0
	MOVQ   R8, BX

szero:
	TESTQ   BX, BX
	JZ      snoacc
	SUBQ    $16, BX
	VMOVUPD X0, (DI)(BX*1)
	JMP     szero

snoacc:
	MOVQ $0, gidx-8(SP)

srow:
	MOVQ gidx-8(SP), BX
	MOVQ SARG_VLOC(AX), SI
	TESTQ SI, SI
	JZ   snodiag
	VMOVSD (SI)(BX*8), X15
	VADDSD SARG_DIAG(AX), X15, X15
	VBROADCASTSD X15, Y15

snodiag:
	NBROW(SARG_XP, R11)
	NBROW(SARG_XM, R12)
	NBROW(SARG_YP, R13)
	NBROW(SARG_YM, DX)
	NBROW(SARG_ZP, R9)
	NBROW(SARG_ZM, CX)
	MOVQ BX, SI
	IMULQ R8, SI
	MOVQ SI, DI
	ADDQ SARG_SRC(AX), SI
	ADDQ SARG_DST(AX), DI
	INCQ BX
	MOVQ BX, gidx-8(SP)
	XORQ R10, R10

s2:
	LEAQ 16(R10), BX
	CMPQ BX, R8
	JGE  s1
	SHELL(Y0, Y1, Y2, Y14, Y13, Y12, Y11, Y10, Y9, Y8, $5)
	CMPQ SARG_VLOC(AX), $0
	JEQ  s2add
	DIAGROW(Y0, Y1, Y2, Y3, Y15, Y14, $5)
	JMP  s2store

s2add:
	VADDPD (DI)(R10*1), Y0, Y0

s2store:
	VMOVUPD Y0, (DI)(R10*1)
	MOVQ    SARG_ACC(AX), BX
	TESTQ   BX, BX
	JZ      s2done
	CONJDOT(BX, R10, Y1, Y0, Y2, Y3, Y7, $15, $5)

s2done:
	ADDQ $32, R10
	JMP  s2

s1:
	CMPQ R10, R8
	JGE  snext
	SHELL(X0, X1, X2, X14, X13, X12, X11, X10, X9, X8, $1)
	CMPQ SARG_VLOC(AX), $0
	JEQ  s1add
	DIAGROW(X0, X1, X2, X3, X15, X14, $1)
	JMP  s1store

s1add:
	VADDPD (DI)(R10*1), X0, X0

s1store:
	VMOVUPD X0, (DI)(R10*1)
	MOVQ    SARG_ACC(AX), BX
	TESTQ   BX, BX
	JZ      snext
	CONJDOT(BX, R10, X1, X0, X2, X3, X7, $3, $1)

snext:
	MOVQ gidx-8(SP), BX
	CMPQ BX, SARG_ROWS(AX)
	JLT  srow
	VZEROUPPER
	RET
