package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mlmd/internal/par"
)

func withWorkers(tb testing.TB, n int, f func()) {
	tb.Helper()
	prev := par.SetWorkers(n)
	defer par.SetWorkers(prev)
	f()
}

// TestGEMM32WorkerCountInvariance: row sharding must be bitwise stable
// under any worker count (rows are disjoint and chunk boundaries depend
// only on the problem shape).
func TestGEMM32WorkerCountInvariance(t *testing.T) {
	const m, n, k = 129, 65, 77
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(i%23)/7 - 1.3
	}
	for i := range b {
		b[i] = float32(i%19)/5 - 1.1
	}
	ref := make([]float32, m*n)
	withWorkers(t, 1, func() {
		GEMM32(m, n, k, 1.25, a, k, b, n, 0, ref, n)
	})
	for _, workers := range []int{2, 4} {
		withWorkers(t, workers, func() {
			c := make([]float32, m*n)
			GEMM32(m, n, k, 1.25, a, k, b, n, 0, c, n)
			for i := range c {
				if math.Float32bits(c[i]) != math.Float32bits(ref[i]) {
					t.Fatalf("workers=%d: C[%d]=%v != serial %v", workers, i, c[i], ref[i])
				}
			}
		})
	}
}

// TestGEMM64WorkerCountInvariance: GEMM64 and GEMM64Job.Run on 1, 2 and 4
// workers equal one serial gemm64Range over all rows, bit for bit. m is not
// a multiple of the 4-row tile, so the last chunk ends in a short block.
func TestGEMM64WorkerCountInvariance(t *testing.T) {
	const m, n, k = 130, 70, 90
	rng := rand.New(rand.NewSource(8))
	a, b, c0 := fuzzReals(rng, m*k, 0, 0), fuzzReals(rng, k*n, 0, 0), fuzzReals(rng, m*n, 0, 0)
	ref := append([]float64(nil), c0...)
	gemm64Range(0, m, n, k, 1.5, a, k, b, n, 0.5, ref, n)
	var job GEMM64Job
	for _, workers := range []int{1, 2, 4} {
		withWorkers(t, workers, func() {
			c := append([]float64(nil), c0...)
			cj := append([]float64(nil), c0...)
			GEMM64(m, n, k, 1.5, a, k, b, n, 0.5, c, n)
			job.Run(m, n, k, 1.5, a, k, b, n, 0.5, cj, n)
			for i := range ref {
				if math.Float64bits(c[i]) != math.Float64bits(ref[i]) || math.Float64bits(cj[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("workers=%d: C[%d] = %v (GEMM64), %v (job), serial %v", workers, i, c[i], cj[i], ref[i])
				}
			}
		})
	}
}

// TestCGEMMBlockedWorkerCountInvariance: same property for the complex
// kernel, both op combinations.
func TestCGEMMBlockedWorkerCountInvariance(t *testing.T) {
	const m, n, k = 97, 51, 140
	a := make([]complex128, m*k)
	b := make([]complex128, k*n)
	for i := range a {
		a[i] = complex(float64(i%13)/3-1, float64(i%7)/2-1)
	}
	for i := range b {
		b[i] = complex(float64(i%11)/4-1, float64(i%5)/3-1)
	}
	for _, opB := range []Op{NoTrans, ConjTrans} {
		bb := b
		ldb := n
		if opB == ConjTrans {
			ldb = k
		}
		ref := make([]complex128, m*n)
		withWorkers(t, 1, func() {
			CGEMMBlocked(NoTrans, opB, m, n, k, 2-1i, a, k, bb, ldb, 0, ref, n)
		})
		for _, workers := range []int{2, 4} {
			withWorkers(t, workers, func() {
				c := make([]complex128, m*n)
				CGEMMBlocked(NoTrans, opB, m, n, k, 2-1i, a, k, bb, ldb, 0, c, n)
				for i := range c {
					if c[i] != ref[i] {
						t.Fatalf("opB=%d workers=%d: C[%d]=%v != serial %v", opB, workers, i, c[i], ref[i])
					}
				}
			})
		}
	}
}

// TestCGEMMTileMatchesNaive: the register-tiled production kernel must
// agree with the naive reference within roundoff.
func TestCGEMMTileMatchesNaive(t *testing.T) {
	const m, n, k = 70, 53, 61
	a := make([]complex128, m*k)
	b := make([]complex128, k*n)
	for i := range a {
		a[i] = cmplx.Exp(complex(0, float64(i%17)))
	}
	for i := range b {
		b[i] = cmplx.Exp(complex(0, float64(i%29)*0.7))
	}
	want := make([]complex128, m*n)
	CGEMM(NoTrans, NoTrans, m, n, k, 1+0.5i, a, k, b, n, 0, want, n)
	got := make([]complex128, m*n)
	CGEMMBlocked(NoTrans, NoTrans, m, n, k, 1+0.5i, a, k, b, n, 0, got, n)
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > 1e-10*float64(k) {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// benchCGEMM2 is the Table V CGEMM(2) shape: Ψ −= δ Ψ0 O.
func BenchmarkCGEMM2Update(b *testing.B) {
	const ngrid, norb = 4096, 96
	psi0 := make([]complex128, ngrid*norb)
	psi := make([]complex128, ngrid*norb)
	o := make([]complex128, norb*norb)
	for i := range psi0 {
		psi0[i] = complex(0.3, -1/float64(i%3+1))
		psi[i] = complex(1/float64(i%5+1), 0.2)
	}
	for i := range o {
		o[i] = complex(float64(i%7)/9, float64(i%5)/7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CGEMMParallel(NoTrans, NoTrans, ngrid, norb, norb,
			complex(-1e-3, 0), psi0, norb, o, norb, 1, psi, norb)
	}
	b.ReportMetric(float64(CGEMMFlops(ngrid, norb, norb))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// gemm32Seed replicates the seed's single-threaded, non-register-tiled
// GEMM32 as the benchmark baseline.
func gemm32Seed(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, beta float32, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else if beta != 1 {
			for j := range row {
				row[j] *= beta
			}
		}
	}
	const bs = 64
	for ii := 0; ii < m; ii += bs {
		iMax := min(ii+bs, m)
		for pp := 0; pp < k; pp += bs {
			pMax := min(pp+bs, k)
			for i := ii; i < iMax; i++ {
				crow := c[i*ldc : i*ldc+n]
				for p := pp; p < pMax; p++ {
					av := alpha * a[i*lda+p]
					if av == 0 {
						continue
					}
					brow := b[p*ldb : p*ldb+n]
					for j, bv := range brow {
						crow[j] += av * bv
					}
				}
			}
		}
	}
}

func BenchmarkGEMM32SeedSerial(b *testing.B) {
	const m, n, k = 512, 256, 256
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%13) - 6
	}
	for i := range bb {
		bb[i] = float32(i%7) - 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemm32Seed(m, n, k, 1, a, k, bb, n, 0, c, n)
	}
	b.ReportMetric(float64(GEMMFlops(m, n, k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGEMM32(b *testing.B) {
	const m, n, k = 512, 256, 256
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%13) - 6
	}
	for i := range bb {
		bb[i] = float32(i%7) - 3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GEMM32(m, n, k, 1, a, k, bb, n, 0, c, n)
	}
	b.ReportMetric(float64(GEMMFlops(m, n, k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
