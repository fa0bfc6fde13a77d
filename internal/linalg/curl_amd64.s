#include "textflag.h"

// AVX2 kernel of curl.go. Like the other kernels of this package it uses NO
// fused multiply-add: each lane runs the reference's chain — two VSUBPD
// differences, two VDIVPD (IEEE division is correctly rounded, so a vector
// divide is the scalar one), a VSUBPD, a rounded VMULPD by k and the
// VADDPD/VSUBPD update — bit for bit (`make asm-nofma` greps for FMA).
//
// A chunk is 4 cells, 12 floats, 3 YMM. Lane j holds component j mod 3, and
// each operand of the stencil sits at a per-component offset from the lane,
// so every operand is one unaligned load merged with one or two more by
// constant-mask VBLENDPD:
//
//	UP = (+2 | −1 | −1)          SP = (+2+Sy | −1+Sz | −1+Sx)
//	UM = (+1 | +1 | −2)          SM = (+1+Sz | +1+Sx | −2+Sy)
//
// (x | y | z lanes, in floats; S is the stencil neighbor's offset, −stride
// for the backward E update and +stride for the forward B update), and
//
//	E: dst += k·((UP−SP)/hP − (UM−SM)/hM)
//	B: dst −= k·((SP−UP)/hP − (SM−UM)/hM)
//
// with hP = (hy | hz | hx) and hM = (hz | hx | hy). The loads reach at most
// two floats past a run of cells on either side; the wrapper's footprint
// check covers that. R14/R15 are left alone.

// curlArgs field offsets (curl.go; TestCurlArgsLayout pins them).
#define CARG_DST    0
#define CARG_SRC    8
#define CARG_SHX    16
#define CARG_SHY    24
#define CARG_SHZ    32
#define CARG_SX     40
#define CARG_SY     48
#define CARG_NCHUNK 56
#define CARG_NY     64
#define CARG_NX     72
#define CARG_DIR    80
#define CARG_K      88
#define CARG_H      96

// Lane masks of the three YMM of a chunk: register r holds the components
// (4r .. 4r+3) mod 3 = x y z x | y z x y | z x y z.

// CURL_LOAD: Y0 = UP, Y2 = SP, Y1 = UM, Y3 = SM for the 4 lanes at byte d,
// with R8/R9/R10 = Sx/Sy/Sz in bytes.
#define CURL_LOAD(d, mx, my, mz) \
	VMOVUPD  d-8(SI), Y0;               \
	VBLENDPD $mx, d+16(SI), Y0, Y0;     \
	VMOVUPD  d+16(SI)(R9*1), Y2;        \
	VBLENDPD $my, d-8(SI)(R10*1), Y2, Y2; \
	VBLENDPD $mz, d-8(SI)(R8*1), Y2, Y2;  \
	VMOVUPD  d+8(SI), Y1;               \
	VBLENDPD $mz, d-16(SI), Y1, Y1;     \
	VMOVUPD  d+8(SI)(R10*1), Y3;        \
	VBLENDPD $my, d+8(SI)(R8*1), Y3, Y3;  \
	VBLENDPD $mz, d-16(SI)(R9*1), Y3, Y3

// CURL_TAIL: Y0 = (Y0/hp − Y1/hm)·k, the rounded product of the update.
#define CURL_TAIL(hp, hm) \
	VDIVPD hp, Y0, Y0;  \
	VDIVPD hm, Y1, Y1;  \
	VSUBPD Y1, Y0, Y0;  \
	VMULPD Y12, Y0, Y0

// CURL_E: the E update of the 4 lanes at byte d.
#define CURL_E(d, mx, my, mz, hp, hm) \
	CURL_LOAD(d, mx, my, mz); \
	VSUBPD Y2, Y0, Y0;        \
	VSUBPD Y3, Y1, Y1;        \
	CURL_TAIL(hp, hm);        \
	VMOVUPD d(DI), Y1;        \
	VADDPD Y0, Y1, Y1;        \
	VMOVUPD Y1, d(DI)

// CURL_B: the B update of the 4 lanes at byte d.
#define CURL_B(d, mx, my, mz, hp, hm) \
	CURL_LOAD(d, mx, my, mz); \
	VSUBPD Y0, Y2, Y0;        \
	VSUBPD Y1, Y3, Y1;        \
	CURL_TAIL(hp, hm);        \
	VMOVUPD d(DI), Y1;        \
	VSUBPD Y0, Y1, Y1;        \
	VMOVUPD Y1, d(DI)

// CURL_ROW: point SI/DI at the row R11 bytes past the first cell and load
// the chunk count.
#define CURL_ROW \
	MOVQ CARG_SRC(AX), SI;    \
	ADDQ R11, SI;             \
	MOVQ CARG_DST(AX), DI;    \
	ADDQ R11, DI;             \
	MOVQ CARG_NCHUNK(AX), CX

// func curlRowsAVX2(args *curlArgs)
TEXT ·curlRowsAVX2(SB), NOSPLIT, $0-8
	MOVQ args+0(FP), AX
	MOVQ CARG_SHX(AX), R8
	MOVQ CARG_SHY(AX), R9
	MOVQ CARG_SHZ(AX), R10
	VBROADCASTSD CARG_K(AX), Y12
	VMOVUPD CARG_H(AX), Y13    // D0 = hy hz hx hy
	VMOVUPD CARG_H+8(AX), Y14  // D1 = hz hx hy hz
	VMOVUPD CARG_H+16(AX), Y15 // D2 = hx hy hz hx
	XORQ R12, R12              // plane offset, bytes
	MOVQ CARG_NX(AX), DX       // planes left
	CMPQ CARG_DIR(AX), $0
	JNE  bplane

eplane:
	MOVQ R12, R11              // row offset, bytes
	MOVQ CARG_NY(AX), BX       // rows left

erow:
	CURL_ROW

echunk:
	CURL_E(0, 9, 2, 4, Y13, Y14)
	CURL_E(32, 4, 9, 2, Y14, Y15)
	CURL_E(64, 2, 4, 9, Y15, Y13)
	ADDQ $96, SI
	ADDQ $96, DI
	DECQ CX
	JNZ  echunk
	ADDQ CARG_SY(AX), R11
	DECQ BX
	JNZ  erow
	ADDQ CARG_SX(AX), R12
	DECQ DX
	JNZ  eplane
	JMP  done

bplane:
	MOVQ R12, R11
	MOVQ CARG_NY(AX), BX

brow:
	CURL_ROW

bchunk:
	CURL_B(0, 9, 2, 4, Y13, Y14)
	CURL_B(32, 4, 9, 2, Y14, Y15)
	CURL_B(64, 2, 4, 9, Y15, Y13)
	ADDQ $96, SI
	ADDQ $96, DI
	DECQ CX
	JNZ  bchunk
	ADDQ CARG_SY(AX), R11
	DECQ BX
	JNZ  brow
	ADDQ CARG_SX(AX), R12
	DECQ DX
	JNZ  bplane

done:
	VZEROUPPER
	RET
