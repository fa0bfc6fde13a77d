#include "textflag.h"

// AVX2 kernels of rows.go, FMA-free: every product is rounded before it is
// added, as in the Go references. A lane is one pair; per pair the
// operations are the reference's, in its order (a product's two operands may
// swap, which moves no bit). Pairs sit at a stride in the radial tape
// (RadialLen values per record) and in the payloads pairGradRows reads, so
// lanes are gathered and scattered one float64 at a time (LANES4, BCAST4,
// PAIR4, STORE4);
// everything else is 4 pairs per YMM. Loads avoid the shuffle port where
// they can: an adjacent pair of floats per lane is two 16-byte loads and an
// unpack (PAIR4), a single float a broadcast and a blend (BCAST4).

// Field offsets of radialArgs (TestRadialArgsLayout).
#define ra_r     0
#define ra_dx    8
#define ra_dy    16
#define ra_dz    24
#define ra_cs    32
#define ra_g     40
#define ra_sn    48
#define ra_cn    56
#define ra_tape  64
#define ra_terms 72
#define ra_n4    80
#define ra_ld    88
#define ra_nr    96
#define ra_rl    104
#define ra_tw2   112
#define ra_ww    120
#define ra_rc    128
#define ra_dfc   136

// Field offsets of pairGradArgs (TestPairGradArgsLayout).
#define pg_gx   0
#define pg_gy   8
#define pg_gz   16
#define pg_gd   24
#define pg_s    32
#define pg_goff 40
#define pg_soff 48
#define pg_tape 56
#define pg_dx   64
#define pg_dy   72
#define pg_dz   80
#define pg_r    88
#define pg_n4   96
#define pg_nr   104
#define pg_rl   112

DATA rowsc<>+0(SB)/8, $0x8000000000000000  // sign mask
DATA rowsc<>+8(SB)/8, $0x400921fb54442d18  // π
DATA rowsc<>+16(SB)/8, $0x3ff0000000000000 // 1
DATA rowsc<>+24(SB)/8, $0x3fe0000000000000 // 0.5
GLOBL rowsc<>(SB), RODATA|NOPTR, $32

// LANES4 loads lane l of dst from memory operand ml.
#define LANES4(m0, m1, m2, m3, dst, dstx, tmpx) \
	VMOVSD      m0, dstx;        \
	VMOVHPD     m1, dstx, dstx;  \
	VMOVSD      m2, tmpx;        \
	VMOVHPD     m3, tmpx, tmpx;  \
	VINSERTF128 $1, tmpx, dst, dst

// BCAST4 loads lane l of dst from memory operand ml without a shuffle:
// broadcasts (load ports only) and immediate blends.
#define BCAST4(m0, m1, m2, m3, dst, dstx, tmp) \
	VMOVSD       m0, dstx;           \
	VBROADCASTSD m1, tmp;            \
	VBLENDPD     $2, tmp, dst, dst;  \
	VBROADCASTSD m2, tmp;            \
	VBLENDPD     $4, tmp, dst, dst;  \
	VBROADCASTSD m3, tmp;            \
	VBLENDPD     $8, tmp, dst, dst

// PAIR4 loads the adjacent pair (m, m+8) of each lane l from memory operand
// ml, the first of every lane into lo and the second into hi: two 16-byte
// loads per half and one unpack each.
#define PAIR4(m0, m1, m2, m3, lo, lox, hi, tmp, tmpx) \
	VMOVUPD     m0, lox;          \
	VINSERTF128 $1, m2, lo, lo;   \
	VMOVUPD     m1, tmpx;         \
	VINSERTF128 $1, m3, tmp, tmp; \
	VUNPCKHPD   tmp, lo, hi;      \
	VUNPCKLPD   tmp, lo, lo

// STORE4 stores lane l of src to memory operand ml.
#define STORE4(src, srcx, tmpx, m0, m1, m2, m3) \
	VMOVSD       srcx, m0;      \
	VMOVHPD      srcx, m1;      \
	VEXTRACTF128 $1, src, tmpx; \
	VMOVSD       tmpx, m2;      \
	VMOVHPD      tmpx, m3

// func radialExpAVX2(a *radialArgs)
//
// Per pair: g[k·ld+p] = ((−d)·d)/(2ww) with d = r − c_k (gaussExponents),
// and sn[p] = (π·r)/rc (cutoffFn's phase).
TEXT ·radialExpAVX2(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), DI
	MOVQ ra_n4(DI), R8
	MOVQ ra_nr(DI), R9
	MOVQ ra_r(DI), SI
	MOVQ ra_g(DI), DX
	MOVQ ra_sn(DI), R10
	MOVQ ra_cs(DI), R11
	MOVQ ra_ld(DI), R12
	SHLQ $3, R12                   // g's stride per k
	VBROADCASTSD ra_tw2(DI), Y15
	VBROADCASTSD ra_rc(DI), Y14
	VBROADCASTSD rowsc<>+8(SB), Y13 // π
	VBROADCASTSD rowsc<>+0(SB), Y12 // sign mask
	XORQ AX, AX                    // p

expgroup:
	CMPQ AX, R8
	JGE  expdone
	VMOVUPD (SI)(AX*8), Y0         // r
	VMULPD  Y13, Y0, Y1
	VDIVPD  Y14, Y1, Y1            // (π·r)/rc
	VMOVUPD Y1, (R10)(AX*8)
	LEAQ    (DX)(AX*8), BX         // &g[p]
	XORQ    CX, CX                 // k

expk:
	VBROADCASTSD (R11)(CX*8), Y2
	VSUBPD  Y2, Y0, Y2             // d = r − c_k
	VXORPD  Y12, Y2, Y3            // −d
	VMULPD  Y2, Y3, Y3             // (−d)·d
	VDIVPD  Y15, Y3, Y3            // /(2ww)
	VMOVUPD Y3, (BX)
	ADDQ    R12, BX
	INCQ    CX
	CMPQ    CX, R9
	JB      expk
	ADDQ $4, AX
	JMP  expgroup

expdone:
	VZEROUPPER
	RET

// func radialRecAVX2(a *radialArgs)
//
// Per pair (cutoffFn, radialInto, descriptorInto's terms): fc = 0.5·(cos+1)
// and dfc = dfcScale·sin, both +0 where r ≥ rc; u = (dx, dy, dz)/r; per k,
// with d = r − c_k and g the Gaussian, h = (g·((−d)/ww))·fc + g·dfc. The
// record [g_0..g_{nr−1}, h_0..h_{nr−1}, fc] goes to the tape, the terms g·fc
// and (g·fc)·u to terms[(4k+c)·ld+p].
//
// k loop registers: R8/R9 the g slots of lanes 0 and 3 (lanes 1, 2 at +rl,
// +2rl via CX = rl·8), R10/R11 the h slots, R12 &g[k·ld+p] (stride R13),
// R14 &terms[4k·ld+p] (BX = ld·8), SI &cs[k] up to DX. AX is p.
TEXT ·radialRecAVX2(SB), NOSPLIT, $0-8
	XORQ AX, AX

recgroup:
	MOVQ a+0(FP), DI
	CMPQ AX, ra_n4(DI)
	JGE  recdone
	MOVQ    ra_r(DI), BX
	VMOVUPD (BX)(AX*8), Y0         // r
	VBROADCASTSD ra_rc(DI), Y1
	VCMPPD  $0x1d, Y1, Y0, Y1      // r ≥ rc (GE_OQ)
	MOVQ    ra_cn(DI), BX
	VMOVUPD (BX)(AX*8), Y2
	VBROADCASTSD rowsc<>+16(SB), Y4
	VADDPD  Y4, Y2, Y2             // cos + 1
	VBROADCASTSD rowsc<>+24(SB), Y4
	VMULPD  Y4, Y2, Y2             // 0.5·(cos + 1)
	VANDNPD Y2, Y1, Y2             // fc
	MOVQ    ra_sn(DI), BX
	VMOVUPD (BX)(AX*8), Y3
	VBROADCASTSD ra_dfc(DI), Y4
	VMULPD  Y4, Y3, Y3
	VANDNPD Y3, Y1, Y3             // dfc
	MOVQ    ra_dx(DI), BX
	VMOVUPD (BX)(AX*8), Y4
	VDIVPD  Y0, Y4, Y4             // ux
	MOVQ    ra_dy(DI), BX
	VMOVUPD (BX)(AX*8), Y5
	VDIVPD  Y0, Y5, Y5             // uy
	MOVQ    ra_dz(DI), BX
	VMOVUPD (BX)(AX*8), Y6
	VDIVPD  Y0, Y6, Y6             // uz
	VBROADCASTSD ra_ww(DI), Y14
	VBROADCASTSD rowsc<>+0(SB), Y15

	MOVQ ra_rl(DI), CX
	SHLQ $3, CX                    // rl·8
	MOVQ ra_nr(DI), DX
	SHLQ $3, DX                    // nr·8
	MOVQ AX, R8
	IMULQ CX, R8
	ADDQ ra_tape(DI), R8           // lane 0's record
	LEAQ (CX)(CX*2), R9
	ADDQ R8, R9                    // lane 3's record
	LEAQ (R8)(DX*1), R10           // lane 0's h_0
	LEAQ (R9)(DX*1), R11           // lane 3's h_0
	LEAQ (R10)(DX*1), BX           // lane 0's fc
	LEAQ (R11)(DX*1), SI           // lane 3's fc
	STORE4(Y2, X2, X7, (BX), (BX)(CX*1), (BX)(CX*2), (SI))
	MOVQ ra_g(DI), R12
	LEAQ (R12)(AX*8), R12
	MOVQ ra_ld(DI), R13
	SHLQ $3, R13
	MOVQ ra_terms(DI), R14
	LEAQ (R14)(AX*8), R14
	MOVQ ra_ld(DI), BX
	SHLQ $3, BX
	MOVQ ra_cs(DI), SI
	ADDQ SI, DX                    // &cs[nr]

reck:
	VBROADCASTSD (SI), Y7
	VSUBPD  Y7, Y0, Y7             // d = r − c_k
	VXORPD  Y15, Y7, Y7            // −d
	VDIVPD  Y14, Y7, Y7            // (−d)/ww
	VMOVUPD (R12), Y8              // g
	VMULPD  Y7, Y8, Y7             // dg
	VMULPD  Y2, Y7, Y7             // dg·fc
	VMULPD  Y3, Y8, Y9             // g·dfc
	VADDPD  Y9, Y7, Y7             // h
	STORE4(Y8, X8, X10, (R8), (R8)(CX*1), (R8)(CX*2), (R9))
	STORE4(Y7, X7, X10, (R10), (R10)(CX*1), (R10)(CX*2), (R11))
	VMULPD  Y2, Y8, Y8             // gf = g·fc
	VMOVUPD Y8, (R14)
	VMULPD  Y4, Y8, Y9
	VMOVUPD Y9, (R14)(BX*1)
	VMULPD  Y5, Y8, Y9
	VMOVUPD Y9, (R14)(BX*2)
	VMULPD  Y6, Y8, Y9
	LEAQ    (R14)(BX*2), DI
	VMOVUPD Y9, (DI)(BX*1)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ R13, R12
	LEAQ (R14)(BX*4), R14
	ADDQ $8, SI
	CMPQ SI, DX
	JB   reck
	ADDQ $4, AX
	JMP  recgroup

recdone:
	VZEROUPPER
	RET

// func pairGradRowsAVX2(a *pairGradArgs)
//
// Per pair, PairGradTaped: u = (dx, dy, dz)/r; from zero, for k ascending,
// with s = S_k, cS = gD_2k·h, su = (sx·ux + sy·uy) + sz·uz, t2 = gD_2k+1·2
// (as gD_2k+1 + gD_2k+1, the same bits), cRad = t2·(su·h) and
// cTan = ((t2·g)·fc)/r: g_a += (cS·u_a + cRad·u_a) + cTan·(s_a − su·u_a).
//
// Frame: 0(SP) p, 8(SP) the k loop's end, 32(SP) fc, 64(SP) r. The k loop
// keeps 13 lane pointers: R8–R11 the cotangent rows, R12–R14/DX the
// accumulator rows, AX/BX the g slots of lanes 0 and 3 (lanes 1, 2 at +rl,
// +2rl via CX = rl·8), SI/DI the h slots. Y13–Y15 hold u, Y8–Y10 the sums.
TEXT ·pairGradRowsAVX2(SB), NOSPLIT, $96-8
	MOVQ $0, 0(SP)

pggroup:
	MOVQ a+0(FP), DI
	MOVQ 0(SP), SI
	CMPQ SI, pg_n4(DI)
	JGE  pgdone
	MOVQ    pg_r(DI), AX
	VMOVUPD (AX)(SI*8), Y12
	VMOVUPD Y12, 64(SP)            // r
	MOVQ    pg_dx(DI), AX
	VMOVUPD (AX)(SI*8), Y13
	VDIVPD  Y12, Y13, Y13          // ux
	MOVQ    pg_dy(DI), AX
	VMOVUPD (AX)(SI*8), Y14
	VDIVPD  Y12, Y14, Y14          // uy
	MOVQ    pg_dz(DI), AX
	VMOVUPD (AX)(SI*8), Y15
	VDIVPD  Y12, Y15, Y15          // uz

	MOVQ    pg_goff(DI), AX
	MOVQ    pg_gd(DI), BX
	MOVLQSX 0(AX)(SI*4), CX
	LEAQ    (BX)(CX*8), R8
	MOVLQSX 4(AX)(SI*4), CX
	LEAQ    (BX)(CX*8), R9
	MOVLQSX 8(AX)(SI*4), CX
	LEAQ    (BX)(CX*8), R10
	MOVLQSX 12(AX)(SI*4), CX
	LEAQ    (BX)(CX*8), R11
	MOVQ    pg_soff(DI), AX
	MOVQ    pg_s(DI), BX
	MOVLQSX 0(AX)(SI*4), CX
	LEAQ    (BX)(CX*8), R12
	MOVLQSX 4(AX)(SI*4), CX
	LEAQ    (BX)(CX*8), R13
	MOVLQSX 8(AX)(SI*4), CX
	LEAQ    (BX)(CX*8), R14
	MOVLQSX 12(AX)(SI*4), CX
	LEAQ    (BX)(CX*8), DX

	MOVQ pg_rl(DI), CX
	SHLQ $3, CX                    // rl·8
	MOVQ pg_nr(DI), BX
	SHLQ $3, BX                    // nr·8
	MOVQ SI, AX
	IMULQ CX, AX
	ADDQ pg_tape(DI), AX           // lane 0's record: g_0
	LEAQ (AX)(BX*2), SI            // lane 0's fc
	LEAQ (CX)(CX*2), DI
	ADDQ SI, DI                    // lane 3's fc
	LANES4((SI), (SI)(CX*1), (SI)(CX*2), (DI), Y0, X0, X1)
	VMOVUPD Y0, 32(SP)             // fc
	LEAQ (AX)(BX*1), SI            // lane 0's h_0
	MOVQ SI, 8(SP)                 // the k loop ends when g reaches h_0
	LEAQ (CX)(CX*2), BX
	LEAQ (SI)(BX*1), DI            // lane 3's h_0
	ADDQ AX, BX                    // lane 3's g_0
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10

pgk:
	PAIR4((R12), (R13), (R14), (DX), Y2, X2, Y3, Y5, X5)     // sx, sy
	BCAST4(16(R12), 16(R13), 16(R14), 16(DX), Y4, X4, Y5)    // sz
	VMULPD Y13, Y2, Y7
	VMULPD Y14, Y3, Y5
	VADDPD Y5, Y7, Y7
	VMULPD Y15, Y4, Y5
	VADDPD Y5, Y7, Y7              // su
	BCAST4((SI), (SI)(CX*1), (SI)(CX*2), (DI), Y6, X6, Y5)   // h
	PAIR4((R8), (R9), (R10), (R11), Y0, X0, Y1, Y11, X11)    // gD_2k, gD_2k+1
	VMULPD Y6, Y0, Y0              // cS
	VADDPD Y1, Y1, Y1              // t2
	VMULPD Y6, Y7, Y5              // su·h
	VMULPD Y5, Y1, Y5              // cRad
	BCAST4((AX), (AX)(CX*1), (AX)(CX*2), (BX), Y6, X6, Y11)  // g
	VMULPD Y6, Y1, Y6              // t2·g
	VMULPD 32(SP), Y6, Y6          // ·fc
	VDIVPD 64(SP), Y6, Y6          // cTan

	VMULPD Y13, Y7, Y11
	VSUBPD Y11, Y2, Y2
	VMULPD Y2, Y6, Y2              // cTan·(sx − su·ux)
	VMULPD Y13, Y0, Y11            // cS·ux
	VMULPD Y13, Y5, Y12            // cRad·ux
	VADDPD Y12, Y11, Y11
	VADDPD Y2, Y11, Y11
	VADDPD Y11, Y8, Y8

	VMULPD Y14, Y7, Y11
	VSUBPD Y11, Y3, Y3
	VMULPD Y3, Y6, Y3
	VMULPD Y14, Y0, Y11
	VMULPD Y14, Y5, Y12
	VADDPD Y12, Y11, Y11
	VADDPD Y3, Y11, Y11
	VADDPD Y11, Y9, Y9

	VMULPD Y15, Y7, Y11
	VSUBPD Y11, Y4, Y4
	VMULPD Y4, Y6, Y4
	VMULPD Y15, Y0, Y11
	VMULPD Y15, Y5, Y12
	VADDPD Y12, Y11, Y11
	VADDPD Y4, Y11, Y11
	VADDPD Y11, Y10, Y10

	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $24, R12
	ADDQ $24, R13
	ADDQ $24, R14
	ADDQ $24, DX
	ADDQ $8, AX
	ADDQ $8, BX
	ADDQ $8, SI
	ADDQ $8, DI
	CMPQ AX, 8(SP)
	JB   pgk

	MOVQ    a+0(FP), DI
	MOVQ    0(SP), SI
	MOVQ    pg_gx(DI), AX
	VMOVUPD Y8, (AX)(SI*8)
	MOVQ    pg_gy(DI), AX
	VMOVUPD Y9, (AX)(SI*8)
	MOVQ    pg_gz(DI), AX
	VMOVUPD Y10, (AX)(SI*8)
	ADDQ    $4, SI
	MOVQ    SI, 0(SP)
	JMP     pggroup

pgdone:
	VZEROUPPER
	RET
