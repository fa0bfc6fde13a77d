// The lanes the vector kernels of this package share (lj_amd64.s,
// prune_amd64.s): broadcasts, the gather-free candidate load and its
// transposition, and Period.MinImage's two fast windows, on 4 candidates
// per YMM (AVX2) or 8 per ZMM (AVX512F). Every macro is a sequence of IEEE
// operations in the Go reference's order, with no fused multiply-add.

// BCAST broadcasts the float64 at off(AX) to the frame slot dst.
#define BCAST(off, dst) \
	VBROADCASTSD off(AX), Y0; \
	VMOVUPD      Y0, dst

// NEGBCAST broadcasts the negated float64 at off(AX) to the frame slot dst;
// Y1 holds the sign mask.
#define NEGBCAST(off, dst) \
	VBROADCASTSD off(AX), Y0; \
	VXORPD       Y1, Y0, Y0;  \
	VMOVUPD      Y0, dst

// MINIMAGE replaces each lane of d by Period.MinImage of it: d + 0 where
// |d| < near, d + (−l) = d − l or d + l by the sign of d where
// wrapLo < |d| < wrapHi (a near lane fails |d| > wrapLo and adds +0). Lanes
// in neither window are cleared from the mask Y0. pnl is −l; Y15 holds the
// abs mask; Y5–Y8 are clobbered.
#define MINIMAGE(d, pnl, pnear, plo, phi) \
	VANDPD  Y15, d, Y5;           \
	VANDNPD d, Y15, Y6;           \
	VXORPD  pnl, Y6, Y6;          \
	VCMPPD  $0x1e, plo, Y5, Y7;   \
	VANDPD  Y7, Y6, Y6;           \
	VADDPD  Y6, d, d;             \
	VCMPPD  $0x11, phi, Y5, Y8;   \
	VANDPD  Y8, Y7, Y7;           \
	VCMPPD  $0x11, pnear, Y5, Y8; \
	VORPD   Y8, Y7, Y7;           \
	VANDPD  Y7, Y0, Y0

// ADDR loads row[off/4] into r, leaves the group to Go (jumps to out)
// unless it is in [0, nx), and makes r the index of its x in x[].
#define ADDR(off, r, out) \
	MOVLQSX off(BX), r;    \
	CMPQ    r, DX;         \
	JAE     out;           \
	LEAQ    (r)(r*2), r

// SEP4 loads the 4 candidates row[0:4] (BX) of the coordinates x (SI),
// leaving the group to Go (a jump to out) on an index outside [0, nx) (DX),
// and leaves their separations from the row atom (Y14, Y13, Y12) in Y3
// (dx), Y4 (dy) and Y2 (dz): each candidate's (x, y) with one 128-bit load
// and its z with one 64-bit load, transposed in registers, no gathers.
// R8–R11 and Y0–Y4 are clobbered.
#define SEP4(out) \
	ADDR(0, R8, out); \
	ADDR(4, R9, out); \
	ADDR(8, R10, out); \
	ADDR(12, R11, out); \
	VMOVUPD     (SI)(R8*8), X0; \
	VMOVUPD     (SI)(R9*8), X1; \
	VINSERTF128 $1, (SI)(R10*8), Y0, Y0; \
	VINSERTF128 $1, (SI)(R11*8), Y1, Y1; \
	VMOVSD      16(SI)(R8*8), X2; \
	VMOVHPD     16(SI)(R9*8), X2, X2; \
	VMOVSD      16(SI)(R10*8), X3; \
	VMOVHPD     16(SI)(R11*8), X3, X3; \
	VINSERTF128 $1, X3, Y2, Y2; \
	VUNPCKLPD   Y1, Y0, Y3; \
	VUNPCKHPD   Y1, Y0, Y4; \
	VSUBPD      Y3, Y14, Y3; \
	VSUBPD      Y4, Y13, Y4; \
	VSUBPD      Y2, Y12, Y2

// ZMINIMAGE is MINIMAGE on 8 lanes: d + 0 near, d + (∓l) in the wrap
// window, by a zero-masked XOR of −l with d's sign. The lanes in either
// window go to ok. Z31 holds the abs mask, Z30 the sign mask, Z9 zero;
// Z5, Z6, K1–K3 are clobbered.
#define ZMINIMAGE(d, znl, znear, zlo, zhi, ok) \
	VPANDQ     Z31, d, Z5;         \
	VPANDQ     Z30, d, Z6;         \
	VCMPPD     $0x1e, zlo, Z5, K1; \
	VCMPPD     $0x11, zhi, Z5, K1, K2; \
	VCMPPD     $0x11, znear, Z5, K3; \
	KORW       K3, K2, ok;         \
	VPXORQ.Z   znl, Z6, K1, Z6;    \
	VADDPD     Z6, d, d

// ZBCAST broadcasts the float64 at off(AX) to z; ZNEGBCAST its negation.
#define ZBCAST(off, z) VBROADCASTSD off(AX), z
#define ZNEGBCAST(off, z) \
	VBROADCASTSD off(AX), z; \
	VPXORQ       Z30, z, z

// ZSEP8 is SEP4 on the 8 candidates row[0:8], from the row atom in Z29,
// Z28, Z27, into Z0 (dx), Z1 (dy) and Z2 (dz). Z0–Z4 are clobbered.
#define ZSEP8(out) \
	ADDR(0, R8, out); \
	ADDR(4, R9, out); \
	ADDR(8, R10, out); \
	ADDR(12, R11, out); \
	VMOVUPD      (SI)(R8*8), X0; \
	VMOVUPD      (SI)(R9*8), X1; \
	VINSERTF32X4 $1, (SI)(R10*8), Z0, Z0; \
	VINSERTF32X4 $1, (SI)(R11*8), Z1, Z1; \
	VMOVSD       16(SI)(R8*8), X2; \
	VMOVHPD      16(SI)(R9*8), X2, X2; \
	VMOVSD       16(SI)(R10*8), X3; \
	VMOVHPD      16(SI)(R11*8), X3, X3; \
	VINSERTF32X4 $1, X3, Z2, Z2; \
	ADDR(16, R8, out); \
	ADDR(20, R9, out); \
	ADDR(24, R10, out); \
	ADDR(28, R11, out); \
	VINSERTF32X4 $2, (SI)(R8*8), Z0, Z0; \
	VINSERTF32X4 $2, (SI)(R9*8), Z1, Z1; \
	VINSERTF32X4 $3, (SI)(R10*8), Z0, Z0; \
	VINSERTF32X4 $3, (SI)(R11*8), Z1, Z1; \
	VMOVSD       16(SI)(R8*8), X3; \
	VMOVHPD      16(SI)(R9*8), X3, X3; \
	VMOVSD       16(SI)(R10*8), X4; \
	VMOVHPD      16(SI)(R11*8), X4, X4; \
	VINSERTF32X4 $2, X3, Z2, Z2; \
	VINSERTF32X4 $3, X4, Z2, Z2; \
	VUNPCKLPD    Z1, Z0, Z3; \
	VUNPCKHPD    Z1, Z0, Z4; \
	VSUBPD       Z3, Z29, Z0; \
	VSUBPD       Z4, Z28, Z1; \
	VSUBPD       Z2, Z27, Z2
