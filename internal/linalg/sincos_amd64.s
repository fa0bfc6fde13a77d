#include "textflag.h"

// AVX2 kernel of sincos.go: math.Sincos ($GOROOT/src/math/sincos.go) on 4
// lanes, FMA-free. Per lane, as the stdlib: a = |x|; j = trunc(a·(4/π)),
// rounded up to even; y = float64(j); z = ((a − y·PI4A) − y·PI4B) − y·PI4C;
// zz = z·z; cos = (1 − 0.5·zz) + (zz·zz)·Pc(zz) and sin = z + (z·zz)·Ps(zz),
// each polynomial Horner's ((c0·zz + c1)·zz + …) + c5 with every product
// rounded before the add. The octant picks the rest: bit 1 of j swaps sin
// and cos, bit 2 negates sin and cos, bit 1 negates cos again, and the sign
// of x negates sin (a sign-bit XOR, as Go's negation is, so sin(−0) = −0).
// a·(4/π) < 2³¹ in range, so VCVTTPD2DQ truncates exactly as the stdlib's
// uint64 conversion does. The kernel stops before the first group with a
// lane not below 2²⁹ (±Inf, NaN), which the Go wrapper sends through
// math.Sincos, so the stdlib's Payne–Hanek branch never applies to a lane.
// Constants are 4-lane memory operands (a 256-bit memory operand is not a
// broadcast).

// |x| mask
DATA sincosc<>+0(SB)/8, $0x7fffffffffffffff
DATA sincosc<>+8(SB)/8, $0x7fffffffffffffff
DATA sincosc<>+16(SB)/8, $0x7fffffffffffffff
DATA sincosc<>+24(SB)/8, $0x7fffffffffffffff
// sign mask
DATA sincosc<>+32(SB)/8, $0x8000000000000000
DATA sincosc<>+40(SB)/8, $0x8000000000000000
DATA sincosc<>+48(SB)/8, $0x8000000000000000
DATA sincosc<>+56(SB)/8, $0x8000000000000000
// 2^29, the stdlib's reduceThreshold
DATA sincosc<>+64(SB)/8, $0x41c0000000000000
DATA sincosc<>+72(SB)/8, $0x41c0000000000000
DATA sincosc<>+80(SB)/8, $0x41c0000000000000
DATA sincosc<>+88(SB)/8, $0x41c0000000000000
// 4/π
DATA sincosc<>+96(SB)/8, $0x3ff45f306dc9c883
DATA sincosc<>+104(SB)/8, $0x3ff45f306dc9c883
DATA sincosc<>+112(SB)/8, $0x3ff45f306dc9c883
DATA sincosc<>+120(SB)/8, $0x3ff45f306dc9c883
// π/4 in three parts
DATA sincosc<>+128(SB)/8, $0x3fe921fb40000000
DATA sincosc<>+136(SB)/8, $0x3fe921fb40000000
DATA sincosc<>+144(SB)/8, $0x3fe921fb40000000
DATA sincosc<>+152(SB)/8, $0x3fe921fb40000000
DATA sincosc<>+160(SB)/8, $0x3e64442d00000000
DATA sincosc<>+168(SB)/8, $0x3e64442d00000000
DATA sincosc<>+176(SB)/8, $0x3e64442d00000000
DATA sincosc<>+184(SB)/8, $0x3e64442d00000000
DATA sincosc<>+192(SB)/8, $0x3ce8469898cc5170
DATA sincosc<>+200(SB)/8, $0x3ce8469898cc5170
DATA sincosc<>+208(SB)/8, $0x3ce8469898cc5170
DATA sincosc<>+216(SB)/8, $0x3ce8469898cc5170
// 0.5
DATA sincosc<>+224(SB)/8, $0x3fe0000000000000
DATA sincosc<>+232(SB)/8, $0x3fe0000000000000
DATA sincosc<>+240(SB)/8, $0x3fe0000000000000
DATA sincosc<>+248(SB)/8, $0x3fe0000000000000
// 1.0
DATA sincosc<>+256(SB)/8, $0x3ff0000000000000
DATA sincosc<>+264(SB)/8, $0x3ff0000000000000
DATA sincosc<>+272(SB)/8, $0x3ff0000000000000
DATA sincosc<>+280(SB)/8, $0x3ff0000000000000
// cos coefficients
DATA sincosc<>+288(SB)/8, $0xbda8fa49a0861a9b
DATA sincosc<>+296(SB)/8, $0xbda8fa49a0861a9b
DATA sincosc<>+304(SB)/8, $0xbda8fa49a0861a9b
DATA sincosc<>+312(SB)/8, $0xbda8fa49a0861a9b
DATA sincosc<>+320(SB)/8, $0x3e21ee9d7b4e3f05
DATA sincosc<>+328(SB)/8, $0x3e21ee9d7b4e3f05
DATA sincosc<>+336(SB)/8, $0x3e21ee9d7b4e3f05
DATA sincosc<>+344(SB)/8, $0x3e21ee9d7b4e3f05
DATA sincosc<>+352(SB)/8, $0xbe927e4f7eac4bc6
DATA sincosc<>+360(SB)/8, $0xbe927e4f7eac4bc6
DATA sincosc<>+368(SB)/8, $0xbe927e4f7eac4bc6
DATA sincosc<>+376(SB)/8, $0xbe927e4f7eac4bc6
DATA sincosc<>+384(SB)/8, $0x3efa01a019c844f5
DATA sincosc<>+392(SB)/8, $0x3efa01a019c844f5
DATA sincosc<>+400(SB)/8, $0x3efa01a019c844f5
DATA sincosc<>+408(SB)/8, $0x3efa01a019c844f5
DATA sincosc<>+416(SB)/8, $0xbf56c16c16c14f91
DATA sincosc<>+424(SB)/8, $0xbf56c16c16c14f91
DATA sincosc<>+432(SB)/8, $0xbf56c16c16c14f91
DATA sincosc<>+440(SB)/8, $0xbf56c16c16c14f91
DATA sincosc<>+448(SB)/8, $0x3fa555555555554b
DATA sincosc<>+456(SB)/8, $0x3fa555555555554b
DATA sincosc<>+464(SB)/8, $0x3fa555555555554b
DATA sincosc<>+472(SB)/8, $0x3fa555555555554b
// sin coefficients
DATA sincosc<>+480(SB)/8, $0x3de5d8fd1fd19ccd
DATA sincosc<>+488(SB)/8, $0x3de5d8fd1fd19ccd
DATA sincosc<>+496(SB)/8, $0x3de5d8fd1fd19ccd
DATA sincosc<>+504(SB)/8, $0x3de5d8fd1fd19ccd
DATA sincosc<>+512(SB)/8, $0xbe5ae5e5a9291f5d
DATA sincosc<>+520(SB)/8, $0xbe5ae5e5a9291f5d
DATA sincosc<>+528(SB)/8, $0xbe5ae5e5a9291f5d
DATA sincosc<>+536(SB)/8, $0xbe5ae5e5a9291f5d
DATA sincosc<>+544(SB)/8, $0x3ec71de3567d48a1
DATA sincosc<>+552(SB)/8, $0x3ec71de3567d48a1
DATA sincosc<>+560(SB)/8, $0x3ec71de3567d48a1
DATA sincosc<>+568(SB)/8, $0x3ec71de3567d48a1
DATA sincosc<>+576(SB)/8, $0xbf2a01a019bfdf03
DATA sincosc<>+584(SB)/8, $0xbf2a01a019bfdf03
DATA sincosc<>+592(SB)/8, $0xbf2a01a019bfdf03
DATA sincosc<>+600(SB)/8, $0xbf2a01a019bfdf03
DATA sincosc<>+608(SB)/8, $0x3f8111111110f7d0
DATA sincosc<>+616(SB)/8, $0x3f8111111110f7d0
DATA sincosc<>+624(SB)/8, $0x3f8111111110f7d0
DATA sincosc<>+632(SB)/8, $0x3f8111111110f7d0
DATA sincosc<>+640(SB)/8, $0xbfc5555555555548
DATA sincosc<>+648(SB)/8, $0xbfc5555555555548
DATA sincosc<>+656(SB)/8, $0xbfc5555555555548
DATA sincosc<>+664(SB)/8, $0xbfc5555555555548
// int32 lanes: 1, and all bits but the lowest
DATA sincosc<>+672(SB)/8, $0x0000000100000001
DATA sincosc<>+680(SB)/8, $0x0000000100000001
DATA sincosc<>+688(SB)/8, $0xfffffffefffffffe
DATA sincosc<>+696(SB)/8, $0xfffffffefffffffe
GLOBL sincosc<>(SB), RODATA|NOPTR, $704

#define SC_ABS sincosc<>+0(SB)
#define SC_SIGN sincosc<>+32(SB)
#define SC_MAX sincosc<>+64(SB)
#define SC_FOPI sincosc<>+96(SB)
#define SC_PI4A sincosc<>+128(SB)
#define SC_PI4B sincosc<>+160(SB)
#define SC_PI4C sincosc<>+192(SB)
#define SC_HALF sincosc<>+224(SB)
#define SC_ONE sincosc<>+256(SB)
#define SC_C0 sincosc<>+288(SB)
#define SC_C1 sincosc<>+320(SB)
#define SC_C2 sincosc<>+352(SB)
#define SC_C3 sincosc<>+384(SB)
#define SC_C4 sincosc<>+416(SB)
#define SC_C5 sincosc<>+448(SB)
#define SC_S0 sincosc<>+480(SB)
#define SC_S1 sincosc<>+512(SB)
#define SC_S2 sincosc<>+544(SB)
#define SC_S3 sincosc<>+576(SB)
#define SC_S4 sincosc<>+608(SB)
#define SC_S5 sincosc<>+640(SB)
#define SC_ONE32 sincosc<>+672(SB)
#define SC_EVEN32 sincosc<>+688(SB)

// func sincosRowsAVX2(s, c, x *float64, n int) int
TEXT ·sincosRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), DI
	MOVQ c+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
	VMOVUPD SC_ABS, Y15
	VMOVUPD SC_SIGN, Y14

loop:
	CMPQ AX, CX
	JGE  done
	VMOVUPD (DX), Y0              // x
	VANDPD  Y15, Y0, Y1           // a = |x|
	VCMPPD  $0x11, SC_MAX, Y1, Y2 // a < 2^29, false for NaN
	VMOVMSKPD Y2, BX
	CMPQ    BX, $15
	JNE     done

	// Octant j, rounded up to even, and y = float64(j).
	VMULPD      SC_FOPI, Y1, Y2
	VCVTTPD2DQY Y2, X3
	VPADDD      SC_ONE32, X3, X3
	VPAND       SC_EVEN32, X3, X3
	VCVTDQ2PD   X3, Y2

	// z = ((a − y·PI4A) − y·PI4B) − y·PI4C, zz = z·z.
	VMULPD SC_PI4A, Y2, Y4
	VSUBPD Y4, Y1, Y4
	VMULPD SC_PI4B, Y2, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD SC_PI4C, Y2, Y5
	VSUBPD Y5, Y4, Y4             // z
	VMULPD Y4, Y4, Y5             // zz

	// cos polynomial: Y6 = (1 − 0.5·zz) + (zz·zz)·Pc
	VMULPD SC_C0, Y5, Y6
	VADDPD SC_C1, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD SC_C2, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD SC_C3, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD SC_C4, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD SC_C5, Y6, Y6
	VMULPD Y5, Y5, Y7
	VMULPD Y6, Y7, Y7
	VMULPD SC_HALF, Y5, Y6
	VMOVUPD SC_ONE, Y8
	VSUBPD Y6, Y8, Y8
	VADDPD Y7, Y8, Y6             // cos polynomial

	// sin polynomial: Y7 = z + (z·zz)·Ps
	VMULPD SC_S0, Y5, Y7
	VADDPD SC_S1, Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD SC_S2, Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD SC_S3, Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD SC_S4, Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD SC_S5, Y7, Y7
	VMULPD Y5, Y4, Y8
	VMULPD Y7, Y8, Y8
	VADDPD Y8, Y4, Y7             // sin polynomial

	// Bits 1 and 2 of j moved to each lane's sign bit.
	VPMOVZXDQ X3, Y3
	VPSLLQ    $62, Y3, Y9         // bit 1: swap
	VPSLLQ    $61, Y3, Y10        // bit 2
	VBLENDVPD Y9, Y6, Y7, Y11     // sin = swap ? cos poly : sin poly
	VBLENDVPD Y9, Y7, Y6, Y12     // cos = swap ? sin poly : cos poly
	VXORPD    Y0, Y10, Y13        // sin sign: sign(x) ^ bit 2
	VANDPD    Y14, Y13, Y13
	VXORPD    Y13, Y11, Y11
	VXORPD    Y9, Y10, Y13        // cos sign: bit 1 ^ bit 2
	VANDPD    Y14, Y13, Y13
	VXORPD    Y13, Y12, Y12
	VMOVUPD   Y11, (DI)
	VMOVUPD   Y12, (SI)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	INCQ AX
	JMP  loop

done:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET
