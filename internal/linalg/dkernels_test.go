package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fuzzReals returns n values starting at an element offset into a larger
// backing array, so the tile sees slices that are not 32-byte aligned.
func fuzzReals(rng *rand.Rand, n, off, rate int) []float64 {
	buf := make([]float64, off+n)
	for i := range buf {
		buf[i] = fuzzReal(rng, rate)
	}
	return buf[off:]
}

func compareReals(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits64(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%x), want %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// gemm64Chain is GEMM64's contract spelled out per element: scale by beta
// (0 stores zero), then add the rounded products in ascending p, skipping
// none. Padding columns of C are left alone.
func gemm64Chain(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*ldc+j] * beta
			if beta == 0 {
				s = 0
			}
			for p := 0; p < k; p++ {
				av := float64(alpha * a[i*lda+p])
				s += float64(av * b[p*ldb+j])
			}
			c[i*ldc+j] = s
		}
	}
}

// checkDKernels runs one random GEMM64 problem three ways — the dispatched
// kernel, the Go reference and the per-element chain — and wants one set of
// bits. With the vector kernels off (or off amd64) the first two coincide.
func checkDKernels(t *testing.T, seed int64, m, n, k, off, rate int, alpha, beta float64) {
	rng := rand.New(rand.NewSource(seed))
	lda, ldb, ldc := k+rng.Intn(3), n+rng.Intn(3), n+rng.Intn(3)
	a := fuzzReals(rng, m*lda, off, rate)
	b := fuzzReals(rng, k*ldb, off, rate)
	c0 := fuzzReals(rng, m*ldc, off, rate)
	what := fmt.Sprintf("%dx%dx%d alpha %v beta %v", m, n, k, alpha, beta)

	want := append([]float64(nil), c0...)
	gemm64Chain(m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
	got := append([]float64(nil), c0...)
	gemm64Range(0, m, n, k, alpha, a, lda, b, ldb, beta, got, ldc)
	compareReals(t, "dgemmTile, "+what, got, want)
	got = append(got[:0], c0...)
	onReference(func() { gemm64Range(0, m, n, k, alpha, a, lda, b, ldb, beta, got, ldc) })
	compareReals(t, "dgemmTileGo, "+what, got, want)
}

var (
	dkernelCols   = []int{1, 3, 4, 7, 8, 20, 96, 97}
	dkernelAlphas = []float64{1, 1.5, math.Copysign(0, -1)}
	dkernelBetas  = []float64{0, 1, 0.5}
)

// FuzzDKernels: the AVX2 GEMM64 tile equals its Go reference (and the
// per-element chain) by Float64bits over row counts that end in short
// blocks, every column-strip mix, k from 0 past the pack block, padded
// leading dimensions, unaligned slices, the alpha/beta special cases, signed
// zeros, subnormals, infinities and NaNs.
func FuzzDKernels(f *testing.F) {
	f.Add(int64(1), uint8(63), uint8(6), uint8(96), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(1), uint8(4), uint8(1))
	f.Add(int64(3), uint8(6), uint8(3), uint8(129), uint8(3), uint8(6), uint8(5))
	f.Add(int64(4), uint8(69), uint8(7), uint8(130), uint8(2), uint8(0), uint8(7))
	f.Add(int64(5), uint8(2), uint8(5), uint8(20), uint8(1), uint8(20), uint8(8))
	f.Add(int64(6), uint8(9), uint8(4), uint8(1), uint8(0), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, m, ncol, k, off, rate, ab uint8) {
		checkDKernels(t, seed, 1+int(m%70), dkernelCols[int(ncol)%len(dkernelCols)], int(k)%131,
			int(off%4), int(rate), dkernelAlphas[int(ab)%3], dkernelBetas[int(ab)/3%3])
	})
}

// TestGEMM64IsTheAscendingChain runs the fuzz body over a fixed grid, so a
// plain `go test` covers every strip width, block remainder and alpha/beta
// pair on both paths, and pins the two IEEE facts the skip-zero branch used
// to hide: 0·Inf is NaN, and −0 + (+0·x) is +0.
func TestGEMM64IsTheAscendingChain(t *testing.T) {
	seed := int64(0)
	for _, m := range []int{1, 2, 3, 4, 5, 7, 70} {
		for _, n := range dkernelCols {
			for _, k := range []int{0, 1, 20, 96, 130} {
				seed++
				ab := int(seed)
				checkDKernels(t, seed, m, n, k, ab%4, 5*(ab%3), dkernelAlphas[ab%3], dkernelBetas[ab/3%3])
			}
		}
	}
	negZero := math.Copysign(0, -1)
	a := []float64{0, 0}
	b := []float64{math.Inf(1), 2, 3, 4}
	c := []float64{7, negZero}
	GEMM64(1, 2, 2, 1, a, 2, b, 2, 1, c, 2)
	if !math.IsNaN(c[0]) {
		t.Errorf("7 + 0·Inf + 0·3 = %v, want NaN", c[0])
	}
	if math.Float64bits(c[1]) != 0 {
		t.Errorf("-0 + 0·2 + 0·4 = %v (%x), want +0", c[1], math.Float64bits(c[1]))
	}
}

// TestGEMM64ShortSlicePanics: the tile checks nothing, so GEMM64 and
// GEMM64Job.Run must refuse an operand that cannot hold the problem before
// anything is read or written past it. Each short slice sits inside a larger
// canary-filled array.
func TestGEMM64ShortSlicePanics(t *testing.T) {
	const m, n, k = 6, 8, 4
	const canary = 12345.5
	backing := make([]float64, 4*m*n)
	for i := range backing {
		backing[i] = canary
	}
	full := make([]float64, m*n)
	var job GEMM64Job
	for _, run := range []struct {
		name string
		f    func(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int)
	}{{"GEMM64", GEMM64}, {"GEMM64Job.Run", job.Run}} {
		mustPanic(t, run.name+" with a short C", func() {
			run.f(m, n, k, 1, full, k, full, n, 1, backing[:m*n-1:m*n-1], n)
		})
		mustPanic(t, run.name+" with a short A", func() {
			run.f(m, n, k, 1, backing[:m*k-1:m*k-1], k, full, n, 1, full, n)
		})
		mustPanic(t, run.name+" with a short B", func() {
			run.f(m, n, k, 1, full, k, backing[:k*n-1:k*n-1], n, 1, full, n)
		})
		mustPanic(t, run.name+" with ldc < n", func() {
			run.f(m, n, k, 1, full, k, full, n, 1, backing[:m*n], n-1)
		})
		mustPanic(t, run.name+" with lda < k", func() {
			run.f(m, n, k, 1, backing[:m*n], k-1, full, n, 1, full, n)
		})
		mustPanic(t, run.name+" with a negative dimension", func() {
			run.f(m, -1, k, 1, full, k, full, n, 1, backing[:m*n], n)
		})
	}
	for i, v := range backing {
		if v != canary {
			t.Fatalf("a rejected call wrote element %d", i)
		}
	}
	for i, v := range full {
		if v != 0 {
			t.Fatalf("a rejected call wrote element %d of a valid operand", i)
		}
	}
}

// BenchmarkGEMM64 times one worker's gemm64Range at the batched-inference
// shapes of nn.allegro — the benchmark's probe shape 256×96×96 and the two
// tail shapes (n = 20: strips 8+8+4; n = 1: the scalar column) — with the
// vector kernel on and off, in GF/s.
func BenchmarkGEMM64(b *testing.B) {
	for _, s := range []struct{ m, n, k int }{{256, 96, 96}, {256, 20, 96}, {256, 1, 96}} {
		rng := rand.New(rand.NewSource(1))
		a := fuzzReals(rng, s.m*s.k, 0, 0)
		bm := fuzzReals(rng, s.k*s.n, 0, 0)
		c := fuzzReals(rng, s.m*s.n, 0, 0)
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemm64Range(0, s.m, s.n, s.k, 1, a, s.k, bm, s.n, 0, c, s.n)
			}
			b.ReportMetric(float64(GEMMFlops(s.m, s.n, s.k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
		}
		shape := fmt.Sprintf("%dx%dx%d", s.m, s.n, s.k)
		b.Run(shape+"/kernel", func(b *testing.B) {
			if !useAVX2 {
				b.Skip("no AVX2: the kernel is the reference")
			}
			run(b)
		})
		b.Run(shape+"/reference", func(b *testing.B) { onReference(func() { run(b) }) })
	}
}
