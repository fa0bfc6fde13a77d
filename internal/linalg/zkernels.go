package linalg

// This file is the complex128 kernel tier under the QD sub-step: the pair
// rotation of kin_prop, the row phase of v_prop, and the register-tile
// micro-kernel of CGEMM. Each kernel is defined by a scalar Go loop — the
// reference — written in real arithmetic with every product rounded before
// it is added (the float64 conversions forbid fusing on every GOARCH). The
// reference is the canonical result: it is the only path off amd64/AVX2 and
// the thing the tests compare against.
//
// Beside each reference sits an AVX2 kernel (zkernels_amd64.s) that uses
// VMULPD, VADDPD and VADDSUBPD only — no FMA — and the CGEMM tile has an
// AVX-512 twin that uses VMULPD and VADDPD with a sign-flipped operand in
// place of VADDSUBPD. Every lane of an element-wise complex kernel, and
// every output column of an ascending-p GEMM, is an independent chain of
// IEEE multiplies and adds, so each vector kernel is bit-for-bit the
// reference (FuzzZKernels; NaN payloads excepted, which IEEE leaves to the
// operand order). The wrappers below own every bounds check; the assembly
// has none.

// useAVX2 selects the assembly kernels, and useAVX512 (which implies
// useAVX2) the AVX-512 CGEMM tile among them. Both are set once at init from
// CPUID and XGETBV (zkernels_amd64.go) and flipped only by this package's
// tests, which run every kernel test on each path.
var useAVX2, useAVX512 bool

// AVX2 and AVX512 report whether this process runs the AVX2 and the AVX-512
// (AVX512F) kernel tiers, for the vector kernels of other packages to
// dispatch on the same bits.
func AVX2() bool   { return useAVX2 }
func AVX512() bool { return useAVX512 }

// ZMul returns a·b by the textbook formula
// (ar·br − ai·bi) + i(ar·bi + ai·br), each product rounded before the add.
func ZMul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

// ZRot returns c·a + f·b for a real c — one side of the 2×2 pair rotation
// of the split-operator kinetic propagator — by the canonical formula
//
//	complex(c·re(a) + (fr·re(b) − fi·im(b)), c·im(a) + (fr·im(b) + fi·re(b)))
//
// (10 flops instead of the 14 of two general complex multiplies). ZRotPairs
// applies it to whole rows; callers with one-sided pairs call it per element.
func ZRot(c float64, f, a, b complex128) complex128 {
	fr, fi := real(f), imag(f)
	br, bi := real(b), imag(b)
	return complex(
		float64(c*real(a))+(float64(fr*br)-float64(fi*bi)),
		float64(c*imag(a))+(float64(fr*bi)+float64(fi*br)))
}

// ZPairs is a validated pair-rotation plan: row-index pairs
// (a0,b0), (a1,b1), ... into an orbital-fastest field. Validation happens
// once, at plan time, so a sweep costs one length comparison per call.
type ZPairs struct {
	idx  []int32
	rows int // 1 + the largest row index of the whole plan
}

// NewZPairs validates idx (even length, no negative index) and wraps it.
// The plan keeps idx; the caller must not modify it afterwards.
func NewZPairs(idx []int32) ZPairs {
	if len(idx)%2 != 0 {
		panic("linalg: pair list has odd length")
	}
	rows := 0
	for _, v := range idx {
		if v < 0 {
			panic("linalg: negative pair index")
		}
		rows = max(rows, int(v)+1)
	}
	return ZPairs{idx: idx, rows: rows}
}

// Len returns the number of pairs.
func (p ZPairs) Len() int { return len(p.idx) / 2 }

// Pair returns the row indices of pair k.
func (p ZPairs) Pair(k int) (a, b int) { return int(p.idx[2*k]), int(p.idx[2*k+1]) }

// Slice returns the sub-plan of pairs [lo,hi). It keeps the whole plan's
// row bound, so a chunk needs no fresh validation.
func (p ZPairs) Slice(lo, hi int) ZPairs { return ZPairs{idx: p.idx[2*lo : 2*hi], rows: p.rows} }

// ZRotPairs applies the 2×2 rotation to every pair (a,b) of the plan, on
// rows of norb values at data[a·norb:] and data[b·norb:]:
//
//	rowA' = c·rowA + f·rowB,  rowB' = c·rowB + b·rowA   (ZRot per element).
//
// Within one call distinct pairs must touch distinct rows, which is what a
// parity set of the even–odd splitting is.
//
//mlmd:hotpath
func ZRotPairs(data []complex128, norb int, p ZPairs, c float64, f, b complex128) {
	if norb < 1 || p.rows*norb > len(data) {
		panic("linalg: ZRotPairs field too short for the pair plan")
	}
	if len(p.idx) == 0 {
		return
	}
	if useAVX2 {
		coef := [5]float64{c, real(f), imag(f), real(b), imag(b)}
		zrotPairsAVX2(&data[0], norb, &p.idx[0], len(p.idx)/2, &coef)
		return
	}
	zrotPairsGo(data, norb, p.idx, c, f, b)
}

// zrotPairsGo is the reference of ZRotPairs.
//
//mlmd:hotpath
func zrotPairsGo(data []complex128, norb int, idx []int32, c float64, f, b complex128) {
	for k := 0; k+1 < len(idx); k += 2 {
		ra, rb := int(idx[k])*norb, int(idx[k+1])*norb
		rowA := data[ra : ra+norb]
		rowB := data[rb : rb+norb]
		for s := range rowA {
			va, vb := rowA[s], rowB[s]
			rowA[s] = ZRot(c, f, va, vb)
			rowB[s] = ZRot(c, b, vb, va)
		}
	}
}

// ZPhaseRows multiplies row g of data (norb values at data[g·norb:]) by
// rot[g], for every g in range of rot (ZMul per element). One row of length
// len(data) applies a uniform phase.
//
//mlmd:hotpath
func ZPhaseRows(data []complex128, norb int, rot []complex128) {
	if norb < 1 || len(rot)*norb > len(data) {
		panic("linalg: ZPhaseRows field too short for the phase table")
	}
	if len(rot) == 0 {
		return
	}
	if useAVX2 {
		zphaseRowsAVX2(&data[0], norb, &rot[0], len(rot))
		return
	}
	zphaseRowsGo(data, norb, rot)
}

// zphaseRowsGo is the reference of ZPhaseRows.
//
//mlmd:hotpath
func zphaseRowsGo(data []complex128, norb int, rot []complex128) {
	for g, r := range rot {
		row := data[g*norb : (g+1)*norb]
		for s := range row {
			row[s] = ZMul(row[s], r)
		}
	}
}

// zgemmArgs is the argument block of the CGEMM micro-kernel: one tile
// C[i0:i0+m, 0:n] += alpha · Σ_p op(A)[i,p]·B[p,:] over kb values of p,
// with op(A) read through byte strides and conjugated by a sign mask.
type zgemmArgs struct {
	a          *complex128 // &op(A)[i0,p0]
	aRow, aCol uintptr     // byte strides of op(A) along i and along p
	conj       uint64      // sign bit if op(A) is conjugated, else 0
	b          *complex128 // &B[p0,0]
	ldb        uintptr     // bytes
	c          *complex128 // &C[i0,0]
	ldc        uintptr     // bytes
	m, kb, n   int
	alphaRe    float64
	alphaIm    float64
}

// zgemmTile accumulates one (row range × p block) tile of
// alpha·op(A)·B into C, for row-major B:
//
//	C[i][j] += alpha · Σ_{p∈[p0,p1)} op(A)[i,p]·B[p,j]
//
// with the inner sum starting from zero and running in ascending p (ZMul
// products), then one ZMul by alpha. The caller (cgemmAccumRange) has
// checked the operand lengths against the full problem shape.
//
//mlmd:hotpath
func zgemmTile(opA Op, i0, i1, p0, p1, n int, alpha complex128, a []complex128, lda int, b []complex128, ldb int, c []complex128, ldc int) {
	if i0 >= i1 || p0 >= p1 || n <= 0 {
		return
	}
	if !useAVX2 {
		zgemmTileGo(opA, i0, i1, p0, p1, n, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	const elem = 16 // bytes per complex128
	args := zgemmArgs{
		b: &b[p0*ldb], ldb: uintptr(ldb) * elem,
		c: &c[i0*ldc], ldc: uintptr(ldc) * elem,
		m: i1 - i0, kb: p1 - p0, n: n,
		alphaRe: real(alpha), alphaIm: imag(alpha),
	}
	if opA == NoTrans {
		args.a, args.aRow, args.aCol = &a[i0*lda+p0], uintptr(lda)*elem, elem
	} else {
		args.a, args.aRow, args.aCol = &a[p0*lda+i0], elem, uintptr(lda)*elem
		args.conj = 1 << 63
	}
	if useAVX512 {
		zgemmTileAVX512(&args)
		return
	}
	zgemmTileAVX2(&args)
}

// zgemmStrip is the column-strip width of the reference tile: the partial
// sums of one strip live on the stack while p runs, so B is read row-wise.
const zgemmStrip = 16

// zgemmTileGo is the reference of zgemmTile, and the production path on a
// host without AVX2 — hence the 2×2 unrolling over (i, p), which is worth
// 1.5x over the plain loop. Columns and rows are independent chains, so
// neither the strip width nor the pairing of rows shows in the result; each
// chain takes its p in ascending order, (sum + x_p) + x_{p+1}.
//
//mlmd:hotpath
func zgemmTileGo(opA Op, i0, i1, p0, p1, n int, alpha complex128, a []complex128, lda int, b []complex128, ldb int, c []complex128, ldc int) {
	var acc0, acc1 [zgemmStrip]complex128
	for j0 := 0; j0 < n; j0 += zgemmStrip {
		w := min(zgemmStrip, n-j0)
		s0, s1 := acc0[:w], acc1[:w]
		for i := i0; i < i1; i += 2 {
			// The last row of an odd range is paired with itself; its
			// second copy is computed and dropped.
			i2 := min(i+1, i1-1)
			for j := range s0 {
				s0[j], s1[j] = 0, 0
			}
			p := p0
			for ; p+1 < p1; p += 2 {
				a00, a01 := getOp(a, lda, opA, i, p), getOp(a, lda, opA, i, p+1)
				a10, a11 := getOp(a, lda, opA, i2, p), getOp(a, lda, opA, i2, p+1)
				b0 := b[p*ldb+j0 : p*ldb+j0+w]
				b1 := b[(p+1)*ldb+j0 : (p+1)*ldb+j0+w]
				for j := range s0 {
					bv0, bv1 := b0[j], b1[j]
					s0[j] = (s0[j] + ZMul(a00, bv0)) + ZMul(a01, bv1)
					s1[j] = (s1[j] + ZMul(a10, bv0)) + ZMul(a11, bv1)
				}
			}
			if p < p1 {
				a0, a1 := getOp(a, lda, opA, i, p), getOp(a, lda, opA, i2, p)
				for j, bv := range b[p*ldb+j0 : p*ldb+j0+w] {
					s0[j] += ZMul(a0, bv)
					s1[j] += ZMul(a1, bv)
				}
			}
			c0 := c[i*ldc+j0 : i*ldc+j0+w]
			for j := range c0 {
				c0[j] += ZMul(alpha, s0[j])
			}
			if i2 != i {
				c1 := c[i2*ldc+j0 : i2*ldc+j0+w]
				for j := range c1 {
					c1[j] += ZMul(alpha, s1[j])
				}
			}
		}
	}
}
