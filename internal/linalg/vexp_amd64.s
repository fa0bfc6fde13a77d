#include "textflag.h"

// AVX2+FMA kernels of vexp.go. This is the one file of the package that
// fuses, and it fuses exactly where its reference does: VEXP is the avxfma
// block of Go's amd64 math.Exp ($GOROOT/src/math/exp_amd64.s) with each
// scalar instruction replaced by its 4-lane form — VFNMADD231 ×2 for the
// Cody–Waite reduction, VFMADD213 ×7 for the Taylor chain, four
// (y+2)·y squarings of which the last is a VFMADD213 with 1, and the
// exponent-field scale. `make asm-nofma` exempts this file only while its
// FMA mnemonics appear in the stdlib block's order. The one difference from
// the stdlib: constants live in registers (a 256-bit memory operand is not
// a broadcast). Each kernel stops before the first group with a lane outside
// [−708, 709] or a NaN, which the Go wrapper sends through math.Exp, so the
// stdlib's not-finite, overflow and subnormal branches never apply to a
// kernel lane. R14/R15 are left alone.

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

DATA vexpc<>+0(SB)/8, $LOG2E
DATA vexpc<>+8(SB)/8, $LN2U
DATA vexpc<>+16(SB)/8, $LN2L
DATA vexpc<>+24(SB)/8, $0.0625
DATA vexpc<>+32(SB)/8, $2.4801587301587301587e-5
DATA vexpc<>+40(SB)/8, $1.9841269841269841270e-4
DATA vexpc<>+48(SB)/8, $1.3888888888888888889e-3
DATA vexpc<>+56(SB)/8, $8.3333333333333333333e-3
DATA vexpc<>+64(SB)/8, $4.1666666666666666667e-2
DATA vexpc<>+72(SB)/8, $1.6666666666666666667e-1
DATA vexpc<>+80(SB)/8, $0.5
DATA vexpc<>+88(SB)/8, $1.0
DATA vexpc<>+96(SB)/8, $2.0
// Four-lane operands: the range bounds, the sign mask, the exponent bias.
DATA vexpc<>+128(SB)/8, $0xc086200000000000 // -708
DATA vexpc<>+136(SB)/8, $0xc086200000000000
DATA vexpc<>+144(SB)/8, $0xc086200000000000
DATA vexpc<>+152(SB)/8, $0xc086200000000000
DATA vexpc<>+160(SB)/8, $0x4086280000000000 // 709
DATA vexpc<>+168(SB)/8, $0x4086280000000000
DATA vexpc<>+176(SB)/8, $0x4086280000000000
DATA vexpc<>+184(SB)/8, $0x4086280000000000
DATA vexpc<>+192(SB)/8, $0x8000000000000000
DATA vexpc<>+200(SB)/8, $0x8000000000000000
DATA vexpc<>+208(SB)/8, $0x8000000000000000
DATA vexpc<>+216(SB)/8, $0x8000000000000000
DATA vexpc<>+224(SB)/8, $0x000003ff000003ff
DATA vexpc<>+232(SB)/8, $0x000003ff000003ff
GLOBL vexpc<>(SB), RODATA|NOPTR, $240

#define VEXP_LO   vexpc<>+128(SB)
#define VEXP_HI   vexpc<>+160(SB)
#define VEXP_SIGN vexpc<>+192(SB)
#define VEXP_BIAS vexpc<>+224(SB)

// VEXP_CONSTS: Y15 log2e, Y14 ln2u, Y13 ln2l, Y12 1/16, Y11..Y7 the Taylor
// coefficients 1/7! .. 1/3!, Y6 1/2, Y5 1, Y4 2.
#define VEXP_CONSTS \
	VBROADCASTSD vexpc<>+0(SB), Y15;  \
	VBROADCASTSD vexpc<>+8(SB), Y14;  \
	VBROADCASTSD vexpc<>+16(SB), Y13; \
	VBROADCASTSD vexpc<>+24(SB), Y12; \
	VBROADCASTSD vexpc<>+40(SB), Y11; \
	VBROADCASTSD vexpc<>+48(SB), Y10; \
	VBROADCASTSD vexpc<>+56(SB), Y9;  \
	VBROADCASTSD vexpc<>+64(SB), Y8;  \
	VBROADCASTSD vexpc<>+72(SB), Y7;  \
	VBROADCASTSD vexpc<>+80(SB), Y6;  \
	VBROADCASTSD vexpc<>+88(SB), Y5;  \
	VBROADCASTSD vexpc<>+96(SB), Y4

// VEXP_RANGE: jump to out unless every lane of Y0 is in [−708, 709] (a NaN
// is in no range). Clobbers Y2, Y3, BX.
#define VEXP_RANGE(out) \
	VCMPPD    $0x1d, VEXP_LO, Y0, Y3; \
	VCMPPD    $0x12, VEXP_HI, Y0, Y2; \
	VANDPD    Y2, Y3, Y3;             \
	VMOVMSKPD Y3, BX;                 \
	CMPQ      BX, $15;                \
	JNE       out

// VEXP: Y0 = exp(Y0), the stdlib's avxfma block lane by lane (its scalar
// register X0 is Y0 here, X1 is Y1, and k lives in X2). Clobbers Y1, Y2.
#define VEXP \
	VMULPD       Y15, Y0, Y1;              \
	VCVTPD2DQY   Y1, X2;                   \
	VCVTDQ2PD    X2, Y1;                   \
	VFNMADD231PD Y14, Y1, Y0;              \
	VFNMADD231PD Y13, Y1, Y0;              \
	VMULPD       Y12, Y0, Y0;              \
	VBROADCASTSD vexpc<>+32(SB), Y1;       \
	VFMADD213PD  Y11, Y0, Y1;              \
	VFMADD213PD  Y10, Y0, Y1;              \
	VFMADD213PD  Y9, Y0, Y1;               \
	VFMADD213PD  Y8, Y0, Y1;               \
	VFMADD213PD  Y7, Y0, Y1;               \
	VFMADD213PD  Y6, Y0, Y1;               \
	VFMADD213PD  Y5, Y0, Y1;               \
	VMULPD       Y1, Y0, Y0;               \
	VADDPD       Y4, Y0, Y1;               \
	VMULPD       Y1, Y0, Y0;               \
	VADDPD       Y4, Y0, Y1;               \
	VMULPD       Y1, Y0, Y0;               \
	VADDPD       Y4, Y0, Y1;               \
	VMULPD       Y1, Y0, Y0;               \
	VADDPD       Y4, Y0, Y1;               \
	VFMADD213PD  Y5, Y1, Y0;               \
	VPADDD       VEXP_BIAS, X2, X2;        \
	VPMOVZXDQ    X2, Y2;                   \
	VPSLLQ       $52, Y2, Y2;              \
	VMULPD       Y2, Y0, Y0

// func expRowsAVX2FMA(dst, src *float64, n int) int
TEXT ·expRowsAVX2FMA(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VEXP_CONSTS
	XORQ AX, AX // groups done

eloop:
	CMPQ AX, CX
	JGE  edone
	VMOVUPD (SI), Y0
	VEXP_RANGE(edone)
	VEXP
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	INCQ    AX
	JMP     eloop

edone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func siluRowsAVX2FMA(y, dy, x *float64, n int) int
//
// Per lane: s = 1/(1+exp(−x)), y = x·s, dy = s + y·(1−s), the x load
// before the dy store so that dy may be x.
TEXT ·siluRowsAVX2FMA(SB), NOSPLIT, $0-40
	MOVQ y+0(FP), DI
	MOVQ dy+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	VEXP_CONSTS
	XORQ AX, AX // groups done

sloop:
	CMPQ AX, CX
	JGE  sdone
	VMOVUPD (SI), Y3
	VXORPD  VEXP_SIGN, Y3, Y0
	VEXP_RANGE(sdone)
	VEXP
	VADDPD  Y0, Y5, Y0  // 1 + e
	VDIVPD  Y0, Y5, Y0  // s = 1/(1+e)
	VMOVUPD (SI), Y3
	VMULPD  Y0, Y3, Y1  // y = x·s
	VMOVUPD Y1, (DI)
	VSUBPD  Y0, Y5, Y3  // 1 − s
	VMULPD  Y3, Y1, Y3  // y·(1−s)
	VADDPD  Y3, Y0, Y3  // s + y·(1−s)
	VMOVUPD Y3, (DX)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, DX
	INCQ    AX
	JMP     sloop

sdone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET
