package linalg

// gemmElem is any element type the shared register-tile kernel supports.
// Go stencils a separate instantiation per element size, so each kernel
// compiles to specialized code.
type gemmElem interface {
	~float32 | ~float64 | ~complex64 | ~complex128
}

// tileNoTransB accumulates op(A)·B (with alpha folded into getA) into C
// rows [ii,iMax) over the k-range [pp,pMax), for row-major B. It is the
// shared hot kernel behind GEMM32 and CGEMM32Parallel (complex128 has its
// own micro-kernel, zgemmTile):
// a 2×2 register tile over (i, p) halves both the C-row store traffic and
// the B-row load traffic per multiply-add — the seed's axpy form reloaded
// C once per p — with j-blocks of bsj keeping the working set in L1.
// getA(i, p) returns alpha·op(A)[i,p]; it is called outside the inner
// loop (4 calls per 2×2×bsj block), so the indirection costs nothing.
//
//mlmd:hotpath
func tileNoTransB[T gemmElem](bsj int, getA func(i, p int) T, ii, iMax, pp, pMax, n int, b []T, ldb int, c []T, ldc int) {
	var zero T
	for jj := 0; jj < n; jj += bsj {
		jMax := jj + bsj
		if jMax > n {
			jMax = n
		}
		i := ii
		for ; i+1 < iMax; i += 2 {
			c0 := c[i*ldc+jj : i*ldc+jMax]
			c1 := c[(i+1)*ldc+jj : (i+1)*ldc+jMax]
			c1 = c1[:len(c0)]
			p := pp
			for ; p+1 < pMax; p += 2 {
				a00 := getA(i, p)
				a01 := getA(i, p+1)
				a10 := getA(i+1, p)
				a11 := getA(i+1, p+1)
				b0 := b[p*ldb+jj : p*ldb+jMax]
				b1 := b[(p+1)*ldb+jj : (p+1)*ldb+jMax]
				b0 = b0[:len(c0)]
				b1 = b1[:len(c0)]
				for j := range c0 {
					bv0, bv1 := b0[j], b1[j]
					c0[j] += a00*bv0 + a01*bv1
					c1[j] += a10*bv0 + a11*bv1
				}
			}
			for ; p < pMax; p++ {
				av0 := getA(i, p)
				av1 := getA(i+1, p)
				brow := b[p*ldb+jj : p*ldb+jMax]
				brow = brow[:len(c0)]
				for j := range brow {
					bv := brow[j]
					c0[j] += av0 * bv
					c1[j] += av1 * bv
				}
			}
		}
		for ; i < iMax; i++ {
			crow := c[i*ldc+jj : i*ldc+jMax]
			for p := pp; p < pMax; p++ {
				av := getA(i, p)
				if av == zero {
					continue
				}
				brow := b[p*ldb+jj : p*ldb+jMax]
				brow = brow[:len(crow)]
				for j := range brow {
					crow[j] += av * brow[j]
				}
			}
		}
	}
}

// scaleRows applies the BLAS beta scaling to C rows [i0,i1).
//
//mlmd:hotpath
func scaleRows[T gemmElem](i0, i1, n int, beta T, c []T, ldc int) {
	var zero T
	one := zero + 1
	if beta == one {
		return
	}
	for i := i0; i < i1; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == zero {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}
