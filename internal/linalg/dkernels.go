package linalg

// This file is the float64 GEMM micro-kernel, on the pattern of zkernels.go:
// a scalar Go reference with every product rounded before it is added (the
// canonical result, and the only path off amd64/AVX2) and an FMA-free AVX2
// twin (dkernels_amd64.s) that equals it bit for bit (FuzzDKernels). The
// wrapper relies on GEMM64's shape check; the assembly has none.

// dgemmArgs is the argument block of the AVX2 tile: up to four rows of
// C += A·B, the rows of A and C addressed as byte offsets from the first so
// that a short block can name its last row more than once.
type dgemmArgs struct {
	a    *float64   // &A[i,0], already scaled by alpha
	aOff [3]uintptr // byte offsets of rows 1..3 of A
	b    *float64   // &B[0,0]
	ldb  uintptr    // bytes
	c    *float64   // &C[i,0]
	cOff [3]uintptr // byte offsets of rows 1..3 of C
	n, k int
}

// dgemmPackK is how many columns of alpha·A the wrapper stages at a time
// when alpha is not 1.
const dgemmPackK = 128

// dgemmTile accumulates rows [i0,i1) of alpha·A·B into C, for row-major B:
//
//	C[i][j] += float64(float64(alpha·A[i,p]) · B[p,j])   for p = 0, 1, ..., k−1
//
// one rounded product at a time, no product skipped. Rows and columns are
// independent chains, so how they are tiled never shows in the result.
//
//mlmd:hotpath
func dgemmTile(i0, i1, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if i0 >= i1 || n <= 0 || k <= 0 {
		return
	}
	if !useAVX2 {
		dgemmTileGo(i0, i1, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	// The tile takes four rows; a last block of r < 4 rows repeats row r−1,
	// which is computed and stored again with the same bits.
	var pack [4 * dgemmPackK]float64
	args := dgemmArgs{ldb: uintptr(ldb) * 8, n: n}
	for i := i0; i < i1; i += 4 {
		r := min(4, i1-i)
		args.c, args.cOff = &c[i*ldc], dgemmRowOffsets(r, ldc)
		if alpha == 1 { // 1·x is x: read A in place
			args.a, args.aOff = &a[i*lda], dgemmRowOffsets(r, lda)
			args.b, args.k = &b[0], k
			dgemmTile4AVX2(&args)
			continue
		}
		args.a, args.aOff = &pack[0], dgemmRowOffsets(r, dgemmPackK)
		for p0 := 0; p0 < k; p0 += dgemmPackK {
			kb := min(dgemmPackK, k-p0)
			for q := 0; q < r; q++ {
				src := a[(i+q)*lda+p0 : (i+q)*lda+p0+kb]
				dst := pack[q*dgemmPackK : q*dgemmPackK+kb]
				for p, v := range src {
					dst[p] = alpha * v
				}
			}
			args.b, args.k = &b[p0*ldb], kb
			dgemmTile4AVX2(&args)
		}
	}
}

// dgemmRowOffsets returns the byte offsets of rows 1..3 of an r-row block
// (1 ≤ r ≤ 4) with leading dimension ld, rows past the block clamped to its
// last row.
func dgemmRowOffsets(r, ld int) [3]uintptr {
	row := uintptr(ld) * 8
	return [3]uintptr{uintptr(min(1, r-1)) * row, uintptr(min(2, r-1)) * row, uintptr(r-1) * row}
}

// dgemmTileGo is the reference of dgemmTile: the row-axpy loop, blocked
// over (i, p) so a block of B rows stays in cache while the rows of C that
// use it go by. Blocking p does not reorder any element's chain.
//
//mlmd:hotpath
func dgemmTileGo(i0, i1, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	const bs = 64
	for ii := i0; ii < i1; ii += bs {
		iMax := min(ii+bs, i1)
		for pp := 0; pp < k; pp += bs {
			pMax := min(pp+bs, k)
			for i := ii; i < iMax; i++ {
				crow := c[i*ldc : i*ldc+n]
				for p := pp; p < pMax; p++ {
					av := float64(alpha * a[i*lda+p])
					brow := b[p*ldb : p*ldb+n]
					for j, bv := range brow {
						crow[j] += float64(av * bv)
					}
				}
			}
		}
	}
}
