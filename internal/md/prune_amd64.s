#include "textflag.h"
#include "minimage_amd64.h"

// The prune kernels of prune.go: pruneKernel.rowRef on 4 candidates per YMM
// (AVX2) or 8 per ZMM (AVX512F), one candidate per lane. Each lane runs the
// reference's IEEE operations in Go's order with no fused multiply-add —
// Period.MinImage in its two fast windows, then (dx·dx + dy·dy) + dz·dz and
// the test r² ≤ k.r2 — so a lane accepts exactly the candidates the
// reference accepts. The accepted indices go out compacted, in row order:
// a 16-entry VPSHUFB table indexed by the YMM accept mask, or VPCOMPRESSD
// under the ZMM one. A group with a lane outside both MinImage windows (NaN
// and ±Inf included) or an index outside [0, nx) returns to Go.

// pruneAVX2's frame: the pruneKernel's periods broadcast to 4 lanes, 32
// bytes each, −l in place of l, and the squared radius.
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
#define LR2      384(SP)

// pruneShuf[m] is the VPSHUFB control that moves the dwords of the lanes set
// in the 4-bit mask m, in lane order, to the front of an XMM.
DATA pruneShuf<>+0(SB)/8, $0x8080808080808080
DATA pruneShuf<>+8(SB)/8, $0x8080808080808080
DATA pruneShuf<>+16(SB)/8, $0x8080808003020100
DATA pruneShuf<>+24(SB)/8, $0x8080808080808080
DATA pruneShuf<>+32(SB)/8, $0x8080808007060504
DATA pruneShuf<>+40(SB)/8, $0x8080808080808080
DATA pruneShuf<>+48(SB)/8, $0x0706050403020100
DATA pruneShuf<>+56(SB)/8, $0x8080808080808080
DATA pruneShuf<>+64(SB)/8, $0x808080800b0a0908
DATA pruneShuf<>+72(SB)/8, $0x8080808080808080
DATA pruneShuf<>+80(SB)/8, $0x0b0a090803020100
DATA pruneShuf<>+88(SB)/8, $0x8080808080808080
DATA pruneShuf<>+96(SB)/8, $0x0b0a090807060504
DATA pruneShuf<>+104(SB)/8, $0x8080808080808080
DATA pruneShuf<>+112(SB)/8, $0x0706050403020100
DATA pruneShuf<>+120(SB)/8, $0x808080800b0a0908
DATA pruneShuf<>+128(SB)/8, $0x808080800f0e0d0c
DATA pruneShuf<>+136(SB)/8, $0x8080808080808080
DATA pruneShuf<>+144(SB)/8, $0x0f0e0d0c03020100
DATA pruneShuf<>+152(SB)/8, $0x8080808080808080
DATA pruneShuf<>+160(SB)/8, $0x0f0e0d0c07060504
DATA pruneShuf<>+168(SB)/8, $0x8080808080808080
DATA pruneShuf<>+176(SB)/8, $0x0706050403020100
DATA pruneShuf<>+184(SB)/8, $0x808080800f0e0d0c
DATA pruneShuf<>+192(SB)/8, $0x0f0e0d0c0b0a0908
DATA pruneShuf<>+200(SB)/8, $0x8080808080808080
DATA pruneShuf<>+208(SB)/8, $0x0b0a090803020100
DATA pruneShuf<>+216(SB)/8, $0x808080800f0e0d0c
DATA pruneShuf<>+224(SB)/8, $0x0b0a090807060504
DATA pruneShuf<>+232(SB)/8, $0x808080800f0e0d0c
DATA pruneShuf<>+240(SB)/8, $0x0706050403020100
DATA pruneShuf<>+248(SB)/8, $0x0f0e0d0c0b0a0908
GLOBL pruneShuf<>(SB), RODATA|NOPTR, $256

// func pruneAVX2(k *pruneKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, out *int32) (done, kept int)
TEXT ·pruneAVX2(SB), NOSPLIT, $416-88
	MOVQ k+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ nx+16(FP), DX
	MOVQ row+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ out+64(FP), DI
	VBROADCASTSD xi+40(FP), Y14
	VBROADCASTSD yi+48(FP), Y13
	VBROADCASTSD zi+56(FP), Y12
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $1, Y15, Y15        // abs mask
	LEAQ     pruneShuf<>(SB), R12

	BCAST(0, LR2)
	VPCMPEQQ Y1, Y1, Y1
	VPSLLQ   $63, Y1, Y1         // sign mask
	NEGBCAST(8, PX_NL)
	BCAST(16, PX_NEAR)
	BCAST(24, PX_LO)
	BCAST(32, PX_HI)
	NEGBCAST(40, PY_NL)
	BCAST(48, PY_NEAR)
	BCAST(56, PY_LO)
	BCAST(64, PY_HI)
	NEGBCAST(72, PZ_NL)
	BCAST(80, PZ_NEAR)
	BCAST(88, PZ_LO)
	BCAST(96, PZ_HI)

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

	VMULPD    Y3, Y3, Y5
	VMULPD    Y4, Y4, Y6
	VADDPD    Y6, Y5, Y5
	VMULPD    Y2, Y2, Y6
	VADDPD    Y6, Y5, Y5             // r2 = dx·dx + dy·dy + dz·dz
	VCMPPD    $0x12, LR2, Y5, Y6     // r2 ≤ k.r2
	VMOVMSKPD Y6, R8
	VMOVDQU   (BX), X7               // the group's 4 indices
	MOVQ      R8, R9
	SHLQ      $4, R9
	VPSHUFB   (R12)(R9*1), X7, X7    // the accepted ones first, in order
	VMOVDQU   X7, (DI)
	POPCNTQ   R8, R8
	LEAQ      (DI)(R8*4), DI

	ADDQ $16, BX
	SUBQ $4, CX
	JMP  group

done:
	MOVQ n+32(FP), R8
	SUBQ CX, R8
	MOVQ R8, done+72(FP)
	MOVQ DI, R8
	SUBQ out+64(FP), R8
	SHRQ $2, R8
	MOVQ R8, kept+80(FP)
	VZEROUPPER
	RET

// func pruneAVX512(k *pruneKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, out *int32) (done, kept int)
TEXT ·pruneAVX512(SB), NOSPLIT, $0-88
	MOVQ k+0(FP), AX
	MOVQ x+8(FP), SI
	MOVQ nx+16(FP), DX
	MOVQ row+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ out+64(FP), DI
	VBROADCASTSD xi+40(FP), Z29
	VBROADCASTSD yi+48(FP), Z28
	VBROADCASTSD zi+56(FP), Z27
	VPTERNLOGQ   $0xff, Z31, Z31, Z31
	VPSRLQ       $1, Z31, Z31      // abs mask
	VPTERNLOGQ   $0xff, Z30, Z30, Z30
	VPSLLQ       $63, Z30, Z30     // sign mask
	ZBCAST(0, Z14)                 // k.r2
	ZNEGBCAST(8, Z26)
	ZBCAST(16, Z25)
	ZBCAST(24, Z24)
	ZBCAST(32, Z23)
	ZNEGBCAST(40, Z22)
	ZBCAST(48, Z21)
	ZBCAST(56, Z20)
	ZBCAST(64, Z19)
	ZNEGBCAST(72, Z18)
	ZBCAST(80, Z17)
	ZBCAST(88, Z16)
	ZBCAST(96, Z15)

zgroup:
	CMPQ CX, $8
	JLT  zdone
	ZSEP8(zdone)

	ZMINIMAGE(Z0, Z26, Z25, Z24, Z23, K4)
	ZMINIMAGE(Z1, Z22, Z21, Z20, Z19, K5)
	ZMINIMAGE(Z2, Z18, Z17, Z16, Z15, K6)
	KANDW K5, K4, K4
	KANDW K6, K4, K4
	KMOVW K4, R8
	CMPQ  R8, $0xff
	JNE   zdone

	VMULPD      Z0, Z0, Z3
	VMULPD      Z1, Z1, Z4
	VADDPD      Z4, Z3, Z3
	VMULPD      Z2, Z2, Z4
	VADDPD      Z4, Z3, Z3           // r2
	VCMPPD      $0x12, Z14, Z3, K1   // r2 ≤ k.r2
	VMOVDQU     (BX), Y7             // the group's 8 indices (upper half zeroed)
	VPCOMPRESSD Z7, K1, (DI)
	KMOVW       K1, R8
	POPCNTQ     R8, R8
	LEAQ        (DI)(R8*4), DI

	ADDQ $32, BX
	SUBQ $8, CX
	JMP  zgroup

zdone:
	MOVQ n+32(FP), R8
	SUBQ CX, R8
	MOVQ R8, done+72(FP)
	MOVQ DI, R8
	SUBQ out+64(FP), R8
	SHRQ $2, R8
	MOVQ R8, kept+80(FP)
	VZEROUPPER
	RET
