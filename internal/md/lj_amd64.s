#include "textflag.h"
#include "minimage_amd64.h"

// The LJ terms kernels of lj.go: ljKernel.pair on 4 candidates per YMM
// (AVX2) or 8 per ZMM (AVX512F), one candidate per lane. As in
// internal/linalg's kernels there is NO fused multiply-add (`make
// asm-nofma`): every VMULPD result is rounded before a VADDPD or VSUBPD takes
// it, and each lane runs pair's IEEE operations in Go's evaluation order, so
// a lane's terms are pair's bits.
//
// A group loads each candidate's (x, y) with one 128-bit load and its z with
// one 64-bit load and transposes them in registers: no gathers. MinImage
// runs in the lanes for its two fast windows, as d + 0 or d + (∓l) (IEEE
// d − l is d + (−l)); a group with a lane outside both (NaN and ±Inf
// included) or an index outside [0, nx) returns to Go, which runs pair on
// it. Rejected lanes store +0 (the accept mask ANDed in, or zero-masking).

// ljTermsAVX2's frame: the ljKernel constants broadcast to 4 lanes, 32 bytes
// each, −l in place of l.
#define PX_NL    0(SP)
#define PX_NEAR  32(SP)
#define PX_LO    64(SP)
#define PX_HI    96(SP)
#define PY_NL    128(SP)
#define PY_NEAR  160(SP)
#define PY_LO    192(SP)
#define PY_HI    224(SP)
#define PZ_NL    256(SP)
#define PZ_NEAR  288(SP)
#define PZ_LO    320(SP)
#define PZ_HI    352(SP)
#define RC2      384(SP)
#define SIG2     416(SP)
#define EPS24    448(SP)
#define EPS4     480(SP)
#define HALF     512(SP)

// Byte offsets of ljScratch's y, z and u arrays from x (ljSeg = 64).
#define TY 512
#define TZ 1024
#define TU 1536

// func ljTermsAVX2(k *ljKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, t *float64) int
TEXT ·ljTermsAVX2(SB), NOSPLIT, $544-80
	MOVQ k+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ nx+16(FP), DX
	MOVQ row+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ t+64(FP), DI
	VBROADCASTSD xi+40(FP), Y14
	VBROADCASTSD yi+48(FP), Y13
	VBROADCASTSD zi+56(FP), Y12
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $1, Y15, Y15        // abs mask
	VXORPD   Y11, Y11, Y11       // +0

	BCAST(0, RC2)
	BCAST(8, SIG2)
	BCAST(16, EPS4)
	BCAST(24, EPS24)
	VPCMPEQQ Y1, Y1, Y1
	VPSLLQ   $63, Y1, Y1         // sign mask
	NEGBCAST(32, PX_NL)
	BCAST(40, PX_NEAR)
	BCAST(48, PX_LO)
	BCAST(56, PX_HI)
	NEGBCAST(64, PY_NL)
	BCAST(72, PY_NEAR)
	BCAST(80, PY_LO)
	BCAST(88, PY_HI)
	NEGBCAST(96, PZ_NL)
	BCAST(104, PZ_NEAR)
	BCAST(112, PZ_LO)
	BCAST(120, PZ_HI)
	MOVQ         $0x3FE0000000000000, R8
	VMOVQ        R8, X0
	VBROADCASTSD X0, Y0
	VMOVUPD      Y0, HALF        // 0.5

group:
	CMPQ CX, $4
	JLT  done
	SEP4(done)

	VPCMPEQQ Y0, Y0, Y0
	MINIMAGE(Y3, PX_NL, PX_NEAR, PX_LO, PX_HI)
	MINIMAGE(Y4, PY_NL, PY_NEAR, PY_LO, PY_HI)
	MINIMAGE(Y2, PZ_NL, PZ_NEAR, PZ_LO, PZ_HI)
	VMOVMSKPD Y0, R8
	CMPQ      R8, $15
	JNE       done

	VMULPD Y3, Y3, Y5
	VMULPD Y4, Y4, Y6
	VADDPD Y6, Y5, Y5
	VMULPD Y2, Y2, Y6
	VADDPD Y6, Y5, Y5                // r2 = dx·dx + dy·dy + dz·dz
	VCMPPD $0x1a, RC2, Y5, Y6        // !(r2 > rc2)
	VCMPPD $0x04, Y11, Y5, Y7        // !(r2 == 0)
	VANDPD Y7, Y6, Y6                // accept
	VMOVUPD SIG2, Y7
	VDIVPD Y5, Y7, Y7                // sr2 = σ²/r2
	VMULPD Y7, Y7, Y8
	VMULPD Y7, Y8, Y8                // sr6 = sr2·sr2·sr2
	VMULPD Y8, Y8, Y9                // sr12 = sr6·sr6
	VADDPD Y9, Y9, Y10               // 2·sr12
	VSUBPD Y8, Y10, Y10
	VMULPD EPS24, Y10, Y10           // 24ε·(2·sr12 − sr6)
	VDIVPD Y5, Y10, Y10              // fmag = …/r2
	VSUBPD Y8, Y9, Y9
	VMULPD EPS4, Y9, Y9              // 4ε·(sr12 − sr6)
	VMULPD HALF, Y9, Y9              // ½u
	VMULPD Y3, Y10, Y3
	VMULPD Y4, Y10, Y4
	VMULPD Y2, Y10, Y2
	VANDPD Y6, Y3, Y3
	VANDPD Y6, Y4, Y4
	VANDPD Y6, Y2, Y2
	VANDPD Y6, Y9, Y9
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, TY(DI)
	VMOVUPD Y2, TZ(DI)
	VMOVUPD Y9, TU(DI)

	ADDQ $16, BX
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  group

done:
	MOVQ n+32(FP), R8
	SUBQ CX, R8
	MOVQ R8, ret+72(FP)
	VZEROUPPER
	RET

// func ljTermsAVX512(k *ljKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, t *float64) int
TEXT ·ljTermsAVX512(SB), NOSPLIT, $0-80
	MOVQ k+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ nx+16(FP), DX
	MOVQ row+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ t+64(FP), DI
	VBROADCASTSD xi+40(FP), Z29
	VBROADCASTSD yi+48(FP), Z28
	VBROADCASTSD zi+56(FP), Z27
	VPTERNLOGQ   $0xff, Z31, Z31, Z31
	VPSRLQ       $1, Z31, Z31      // abs mask
	VPXORQ       Z9, Z9, Z9        // +0
	VPTERNLOGQ   $0xff, Z30, Z30, Z30
	VPSLLQ       $63, Z30, Z30     // sign mask
	ZBCAST(0, Z14)                 // rc2
	ZBCAST(8, Z13)                 // σ²
	ZBCAST(16, Z11)                // 4ε
	ZBCAST(24, Z12)                // 24ε
	ZNEGBCAST(32, Z26)
	ZBCAST(40, Z25)
	ZBCAST(48, Z24)
	ZBCAST(56, Z23)
	ZNEGBCAST(64, Z22)
	ZBCAST(72, Z21)
	ZBCAST(80, Z20)
	ZBCAST(88, Z19)
	ZNEGBCAST(96, Z18)
	ZBCAST(104, Z17)
	ZBCAST(112, Z16)
	ZBCAST(120, Z15)
	MOVQ         $0x3FE0000000000000, R8
	VMOVQ        R8, X10
	VBROADCASTSD X10, Z10          // 0.5

zgroup:
	CMPQ CX, $8
	JLT  zdone
	ZSEP8(zdone)

	ZMINIMAGE(Z0, Z26, Z25, Z24, Z23, K4)
	ZMINIMAGE(Z1, Z22, Z21, Z20, Z19, K5)
	ZMINIMAGE(Z2, Z18, Z17, Z16, Z15, K6)
	KANDW    K5, K4, K4
	KANDW    K6, K4, K4
	KMOVW    K4, R8
	CMPQ     R8, $0xff
	JNE      zdone

	VMULPD   Z0, Z0, Z3
	VMULPD   Z1, Z1, Z4
	VADDPD   Z4, Z3, Z3
	VMULPD   Z2, Z2, Z4
	VADDPD   Z4, Z3, Z3                // r2
	VCMPPD   $0x1a, Z14, Z3, K1        // !(r2 > rc2)
	VCMPPD   $0x04, Z9, Z3, K1, K1     // and !(r2 == 0): accept
	VDIVPD   Z3, Z13, Z4               // sr2
	VMULPD   Z4, Z4, Z5
	VMULPD   Z4, Z5, Z5                // sr6
	VMULPD   Z5, Z5, Z6                // sr12
	VADDPD   Z6, Z6, Z7                // 2·sr12
	VSUBPD   Z5, Z7, Z7
	VMULPD   Z12, Z7, Z7
	VDIVPD   Z3, Z7, Z7                // fmag
	VSUBPD   Z5, Z6, Z6
	VMULPD   Z11, Z6, Z6
	VMULPD.Z Z10, Z6, K1, Z6           // ½u, +0 where rejected
	VMULPD.Z Z0, Z7, K1, Z0
	VMULPD.Z Z1, Z7, K1, Z1
	VMULPD.Z Z2, Z7, K1, Z2
	VMOVUPD  Z0, (DI)
	VMOVUPD  Z1, TY(DI)
	VMOVUPD  Z2, TZ(DI)
	VMOVUPD  Z6, TU(DI)

	ADDQ $32, BX
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  zgroup

zdone:
	MOVQ n+32(FP), R8
	SUBQ CX, R8
	MOVQ R8, ret+72(FP)
	VZEROUPPER
	RET
