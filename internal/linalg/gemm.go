package linalg

import (
	"math"

	"mlmd/internal/par"
)

// gemmRowGrain returns the row-chunk size for sharding an m×n×k GEMM over
// the worker pool: aim for ~1 MFLOP per chunk so dynamic claiming stays
// cheap relative to the work while small problems collapse to one inline
// chunk. The grain is a multiple of 4 so every chunk but the last is whole
// register tiles (4 rows in dgemmTile, 2 in the generic tile).
func gemmRowGrain(n, k, flopsPerMAC int) int {
	work := flopsPerMAC * n * k
	if work <= 0 {
		return 4
	}
	return max(4, (1048576/work)&^3)
}

// checkGEMMShape is checkGEMMArgs for the real row-major GEMMs (A m×k, B k×n,
// C m×n), which also refuses a leading dimension smaller than the row width:
// rows of C would overlap across pool chunks. It runs before any kernel does
// — the assembly tiles check nothing.
func checkGEMMShape(m, n, k, lenA, lda, lenB, ldb, lenC, ldc int) {
	checkGEMMArgs(NoTrans, NoTrans, m, n, k, lenA, lda, lenB, ldb, lenC, ldc)
	if lda < k || ldb < n || ldc < n {
		panic("linalg: leading dimension smaller than the row width")
	}
}

// GEMM32 computes C = alpha*A*B + beta*C for float32 row-major matrices,
// cache-blocked, 2×2 register-tiled, and sharded over the shared worker
// pool by row blocks. A is m×k, B is k×n. The neural-network inference path
// of XS-NNQMD runs on this kernel (the paper's Allegro uses FP32
// activations). Results are bitwise independent of the worker count: rows
// are disjoint and chunk boundaries depend only on the problem shape.
//
//mlmd:hotpath
func GEMM32(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	checkGEMMShape(m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	par.For(m, gemmRowGrain(n, k, 2), func(lo, hi, _ int) {
		gemm32Range(lo, hi, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	})
	AddFlops(GEMMFlops(m, n, k))
}

// gemm32Range scales rows [i0,i1) of C by beta and accumulates
// alpha*A*B into them through the shared register-tile kernel (a single
// full-width j-pass: float32 rows are half the footprint of complex ones,
// so no extra j-blocking is needed at these sizes).
//
//mlmd:hotpath
func gemm32Range(i0, i1, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	scaleRows(i0, i1, n, beta, c, ldc)
	getA := func(i, p int) float32 { return alpha * a[i*lda+p] }
	const bs = 64
	for ii := i0; ii < i1; ii += bs {
		iMax := min(ii+bs, i1)
		for pp := 0; pp < k; pp += bs {
			pMax := min(pp+bs, k)
			tileNoTransB(n, getA, ii, iMax, pp, pMax, n, b, ldb, c, ldc)
		}
	}
}

// GEMM64 computes C = alpha*A*B + beta*C for float64 row-major matrices,
// sharded over the shared worker pool by row blocks. Every C[i][j] is scaled
// by beta and then takes its products float64(alpha·A[i,p])·B[p,j] one at a
// time in ascending p, each rounded before it is added (dgemmTile): the bits
// depend on the operands only — not on the worker count, the vector tier or
// the GOARCH — and no product is skipped, so 0·Inf is NaN as IEEE has it.
//
//mlmd:hotpath
func GEMM64(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	checkGEMMShape(m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	par.For(m, gemmRowGrain(n, k, 2), func(lo, hi, _ int) {
		gemm64Range(lo, hi, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	})
	AddFlops(GEMMFlops(m, n, k))
}

// gemm64Range is GEMM64 on rows [i0,i1) of C.
//
//mlmd:hotpath
func gemm64Range(i0, i1, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	scaleRows(i0, i1, n, beta, c, ldc)
	dgemmTile(i0, i1, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// GEMM64Job is a reusable binding of GEMM64 for steady-state hot loops:
// GEMM64 itself captures its arguments in a fresh pool closure on every
// call (one heap allocation), which callers under the repo's 0-alloc
// steady-state contract — e.g. the blocked MLP inference tapes — cannot
// afford. A zero GEMM64Job is ready to use; Run computes exactly what
// GEMM64 computes (same range kernel, same chunk grain, so results are
// bitwise identical), rebinding the one cached closure in place. A job
// must not be shared by concurrent Run calls.
type GEMM64Job struct {
	n, k, lda, ldb, ldc int
	alpha, beta         float64
	a, b, c             []float64
	fn                  func(lo, hi, w int)
}

// Run is GEMM64 through the job's reused pool closure.
//
//mlmd:hotpath
func (j *GEMM64Job) Run(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if j.fn == nil {
		j.fn = func(lo, hi, _ int) {
			gemm64Range(lo, hi, j.n, j.k, j.alpha, j.a, j.lda, j.b, j.ldb, j.beta, j.c, j.ldc)
		}
	}
	checkGEMMShape(m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	j.n, j.k, j.alpha, j.beta = n, k, alpha, beta
	j.a, j.b, j.c = a, b, c
	j.lda, j.ldb, j.ldc = lda, ldb, ldc
	par.For(m, gemmRowGrain(n, k, 2), j.fn)
	AddFlops(GEMMFlops(m, n, k))
}

// MatVec64 computes y = A x for a dense row-major m×n matrix, sharded over
// the worker pool by rows.
//
//mlmd:hotpath
func MatVec64(m, n int, a []float64, lda int, x, y []float64) {
	grain := 1
	if n > 0 {
		if grain = 16384 / n; grain < 1 {
			grain = 1
		}
	}
	par.For(m, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			row := a[i*lda : i*lda+n]
			var sum float64
			for j, v := range row {
				sum += v * x[j]
			}
			y[i] = sum
		}
	})
	AddFlops(2 * uint64(m) * uint64(n))
}

// Dot64 returns the dot product of two equal-length vectors.
//
//mlmd:hotpath
func Dot64(x, y []float64) float64 {
	var sum float64
	for i := range x {
		sum += x[i] * y[i]
	}
	return sum
}

// Norm2 returns the Euclidean norm of x.
//
//mlmd:hotpath
func Norm2(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Axpy64 computes y += alpha*x.
//
//mlmd:hotpath
func Axpy64(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}
