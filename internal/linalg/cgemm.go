// Package linalg implements the dense linear-algebra kernels that the paper's
// "GEMMification" (Sec. V.B.5) reduces nonlocal corrections to: complex
// general matrix-matrix multiplies (CGEMM) in naive, blocked/tiled, and
// parallel variants, plus the real GEMM used by the neural-network module.
//
// Matrices are dense, row-major: A[i*lda+j]. All production kernels shard
// row blocks over the shared worker pool (internal/par); results are
// bitwise independent of the worker count because rows are disjoint and
// chunk boundaries depend only on the problem shape.
package linalg

import (
	"sync/atomic"

	"mlmd/internal/par"
)

// flopCount is a process-wide ledger of floating-point operations executed by
// the kernels in this package, used by the benchmark harness to report
// FLOP/s the way the paper does (counted operations / wall time).
var flopCount atomic.Uint64

// AddFlops adds n floating-point operations to the global ledger.
func AddFlops(n uint64) { flopCount.Add(n) }

// Flops returns the cumulative FLOP count.
func Flops() uint64 { return flopCount.Load() }

// ResetFlops zeroes the ledger and returns the previous value.
func ResetFlops() uint64 { return flopCount.Swap(0) }

// CGEMMFlops returns the FLOP count of an m×k by k×n complex multiply-add:
// each complex MAC is 8 real operations (4 mul + 4 add).
func CGEMMFlops(m, n, k int) uint64 { return 8 * uint64(m) * uint64(n) * uint64(k) }

// GEMMFlops returns the FLOP count of an m×k by k×n real multiply-add.
func GEMMFlops(m, n, k int) uint64 { return 2 * uint64(m) * uint64(n) * uint64(k) }

// Op selects an operand transformation, following BLAS conventions.
type Op int

const (
	// NoTrans uses the operand as stored.
	NoTrans Op = iota
	// ConjTrans uses the conjugate transpose (Hermitian adjoint).
	ConjTrans
)

// CGEMM computes C = alpha*op(A)*op(B) + beta*C with the naive triple loop.
// op(A) is m×k, op(B) is k×n, C is m×n. Row-major with leading dimensions
// lda, ldb, ldc. The naive kernel is the correctness reference; production
// paths use CGEMMBlocked or CGEMMParallel.
func CGEMM(opA, opB Op, m, n, k int, alpha complex128, a []complex128, lda int, b []complex128, ldb int, beta complex128, c []complex128, ldc int) {
	checkGEMMArgs(opA, opB, m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum complex128
			for p := 0; p < k; p++ {
				sum += getOp(a, lda, opA, i, p) * getOp(b, ldb, opB, p, j)
			}
			c[i*ldc+j] = alpha*sum + beta*c[i*ldc+j]
		}
	}
	AddFlops(CGEMMFlops(m, n, k))
}

func getOp(x []complex128, ld int, op Op, i, j int) complex128 {
	if op == NoTrans {
		return x[i*ld+j]
	}
	v := x[j*ld+i]
	return complex(real(v), -imag(v))
}

func checkGEMMArgs(opA, opB Op, m, n, k, lenA, lda, lenB, ldb, lenC, ldc int) {
	if m < 0 || n < 0 || k < 0 {
		panic("linalg: negative dimension")
	}
	// Minimal bounds checks: the last touched element must exist.
	need := func(rows, cols, ld int) int {
		if rows == 0 || cols == 0 {
			return 0
		}
		return (rows-1)*ld + cols
	}
	na, nb := need(m, k, lda), need(k, n, ldb)
	if opA == ConjTrans {
		na = need(k, m, lda)
	}
	if opB == ConjTrans {
		nb = need(n, k, ldb)
	}
	if lenA < na || lenB < nb || lenC < need(m, n, ldc) {
		panic("linalg: operand too short for given dimensions")
	}
}

// blockSize is the tile edge for the cache-blocked kernels. 48 complex128
// values per row-tile ≈ 0.75 KiB; a 48×48 tile pair fits in L1/L2 on
// typical cores.
const blockSize = 48

// CGEMMBlocked computes C = alpha*op(A)*op(B) + beta*C with cache blocking
// (the paper's Sec. V.B.3 tiling applied to the GEMM path), row blocks
// sharded over the shared worker pool. Beta scaling is fused into each row
// chunk so C is traversed once.
//
// Accumulation order (row-major B, the production path): k is cut into
// blocks of blockSize from 0; within a block each C[i][j] sums its products
// op(A)[i,p]·B[p,j] from zero in ascending p, and the block sum is scaled by
// alpha once and added to C[i][j] — blocks in ascending order. That order
// depends on the problem shape only, never on the row chunking, so results
// are bitwise independent of the worker count; the work is sharded over C
// rows and never over p, also for the Gram shape (small m, long k). The
// per-tile work runs on the zgemmTile kernel (AVX2 where available, else
// its bit-identical Go reference).
//
//mlmd:hotpath
func CGEMMBlocked(opA, opB Op, m, n, k int, alpha complex128, a []complex128, lda int, b []complex128, ldb int, beta complex128, c []complex128, ldc int) {
	checkGEMMArgs(opA, opB, m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	AddFlops(CGEMMFlops(m, n, k))
	// The micro-kernel runs about 4x the rate gemmRowGrain's ~1 MFLOP chunk
	// was sized for, so a chunk holds 4x the rows (still ~250 µs). A
	// problem of one chunk — both scissor products of a DC-MESH domain —
	// runs inline, without a pool closure.
	grain := 4 * gemmRowGrain(n, k, 8)
	if m <= grain {
		scaleRows(0, m, n, beta, c, ldc)
		cgemmAccumRange(opA, opB, 0, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	par.For(m, grain, func(lo, hi, _ int) {
		scaleRows(lo, hi, n, beta, c, ldc)
		cgemmAccumRange(opA, opB, lo, hi, n, k, alpha, a, lda, b, ldb, c, ldc)
	})
}

// cgemmAccumRange accumulates alpha*op(A)*op(B) into C for rows [i0,i1).
// Row-major B goes through the zgemmTile micro-kernel; the
// conjugate-transpose B fallback keeps the straightforward blocked loop.
// Neither skips a zero alpha·op(A)[i,p], so 0·Inf and 0·NaN reach C as NaN,
// as in CGEMM.
//
//mlmd:hotpath
func cgemmAccumRange(opA, opB Op, i0, i1, n, k int, alpha complex128, a []complex128, lda int, b []complex128, ldb int, c []complex128, ldc int) {
	for ii := i0; ii < i1; ii += blockSize {
		iMax := min(ii+blockSize, i1)
		for pp := 0; pp < k; pp += blockSize {
			pMax := min(pp+blockSize, k)
			if opB == NoTrans {
				zgemmTile(opA, ii, iMax, pp, pMax, n, alpha, a, lda, b, ldb, c, ldc)
				continue
			}
			for jj := 0; jj < n; jj += blockSize {
				jMax := min(jj+blockSize, n)
				for i := ii; i < iMax; i++ {
					for p := pp; p < pMax; p++ {
						av := alpha * getOp(a, lda, opA, i, p)
						for j := jj; j < jMax; j++ {
							c[i*ldc+j] += av * getOp(b, ldb, opB, p, j)
						}
					}
				}
			}
		}
	}
}

// CGEMMParallel is the historical name of the pool-parallel blocked kernel;
// it now simply delegates to CGEMMBlocked, which owns the sharding.
//
//mlmd:hotpath
func CGEMMParallel(opA, opB Op, m, n, k int, alpha complex128, a []complex128, lda int, b []complex128, ldb int, beta complex128, c []complex128, ldc int) {
	CGEMMBlocked(opA, opB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}
