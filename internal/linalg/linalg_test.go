package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randCMat(m, n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	a := make([]complex128, m*n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

func cmatDiff(a, b []complex128) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, cmplx.Abs(a[i]-b[i]))
	}
	return d
}

func TestCGEMMIdentity(t *testing.T) {
	n := 8
	id := make([]complex128, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	b := randCMat(n, n, 1)
	c := make([]complex128, n*n)
	CGEMM(NoTrans, NoTrans, n, n, n, 1, id, n, b, n, 0, c, n)
	if d := cmatDiff(b, c); d > 1e-14 {
		t.Errorf("I*B != B, max diff %g", d)
	}
}

func TestBlockedAndParallelMatchNaive(t *testing.T) {
	cases := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 7}, {48, 48, 48}, {50, 49, 51}, {97, 64, 100}, {128, 16, 80},
	}
	for _, cs := range cases {
		a := randCMat(cs.m, cs.k, 10)
		b := randCMat(cs.k, cs.n, 11)
		alpha := complex(0.7, -0.3)
		beta := complex(0.2, 0.1)
		ref := randCMat(cs.m, cs.n, 12)
		c1 := append([]complex128(nil), ref...)
		c2 := append([]complex128(nil), ref...)
		c3 := append([]complex128(nil), ref...)
		CGEMM(NoTrans, NoTrans, cs.m, cs.n, cs.k, alpha, a, cs.k, b, cs.n, beta, c1, cs.n)
		CGEMMBlocked(NoTrans, NoTrans, cs.m, cs.n, cs.k, alpha, a, cs.k, b, cs.n, beta, c2, cs.n)
		CGEMMParallel(NoTrans, NoTrans, cs.m, cs.n, cs.k, alpha, a, cs.k, b, cs.n, beta, c3, cs.n)
		if d := cmatDiff(c1, c2); d > 1e-10 {
			t.Errorf("%dx%dx%d blocked diff %g", cs.m, cs.n, cs.k, d)
		}
		if d := cmatDiff(c1, c3); d > 1e-10 {
			t.Errorf("%dx%dx%d parallel diff %g", cs.m, cs.n, cs.k, d)
		}
	}
}

func TestCGEMMConjTrans(t *testing.T) {
	// C = A† B  must equal naive elementwise computation.
	m, n, k := 6, 5, 7
	a := randCMat(k, m, 2) // A is k×m stored; op(A)=A† is m×k
	b := randCMat(k, n, 3)
	c := make([]complex128, m*n)
	CGEMM(ConjTrans, NoTrans, m, n, k, 1, a, m, b, n, 0, c, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var want complex128
			for p := 0; p < k; p++ {
				want += cmplx.Conj(a[p*m+i]) * b[p*n+j]
			}
			if cmplx.Abs(c[i*n+j]-want) > 1e-12 {
				t.Fatalf("A†B mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Blocked variant with ConjTrans on B.
	b2 := randCMat(n, k, 4) // op(B)=B† is k×n
	c1 := make([]complex128, m*n)
	c2 := make([]complex128, m*n)
	a2 := randCMat(m, k, 5)
	CGEMM(NoTrans, ConjTrans, m, n, k, 1, a2, k, b2, k, 0, c1, n)
	CGEMMBlocked(NoTrans, ConjTrans, m, n, k, 1, a2, k, b2, k, 0, c2, n)
	if d := cmatDiff(c1, c2); d > 1e-12 {
		t.Errorf("blocked ConjTrans diff %g", d)
	}
}

// TestCGEMMBlockedPropagatesNaN: a zero in A times an Inf or NaN in op(B)
// is NaN in C, as in the naive CGEMM, for both op(B). The
// conjugate-transpose-B loop used to skip a zero alpha·A[i,p] and return a
// finite C.
func TestCGEMMBlockedPropagatesNaN(t *testing.T) {
	const m, n, k = 2, 3, 2
	a := []complex128{0, 1, 0, 2} // op(A)[i,0] = 0
	for _, bad := range []complex128{complex(math.Inf(1), 0), complex(math.NaN(), 1)} {
		for _, opB := range []Op{NoTrans, ConjTrans} {
			b := make([]complex128, k*n)
			for i := range b {
				b[i] = complex(float64(i+1), -0.5)
			}
			ldb := n
			if opB == ConjTrans {
				ldb = k
				for j := 0; j < n; j++ {
					b[j*ldb] = bad // op(B)[0,j] = conj(B[j,0])
				}
			} else {
				for j := 0; j < n; j++ {
					b[j] = bad // op(B)[0,j] = B[0,j]
				}
			}
			want := make([]complex128, m*n)
			got := make([]complex128, m*n)
			CGEMM(NoTrans, opB, m, n, k, 1, a, k, b, ldb, 0, want, n)
			CGEMMBlocked(NoTrans, opB, m, n, k, 1, a, k, b, ldb, 0, got, n)
			for i := range want {
				if !cmplx.IsNaN(want[i]) {
					t.Fatalf("naive CGEMM: C[%d] = %v, want NaN", i, want[i])
				}
				if math.IsNaN(real(got[i])) != math.IsNaN(real(want[i])) || math.IsNaN(imag(got[i])) != math.IsNaN(imag(want[i])) {
					t.Fatalf("op(B) %d, B holding %v: C[%d] = %v, naive %v", opB, bad, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCGEMMAssociativityProperty(t *testing.T) {
	// (A*B)*x == A*(B*x) for square matrices — catches indexing bugs.
	f := func(seed int64) bool {
		n := 12
		a := randCMat(n, n, seed)
		b := randCMat(n, n, seed+1)
		x := randCMat(n, 1, seed+2)
		ab := make([]complex128, n*n)
		CGEMMBlocked(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, ab, n)
		abx := make([]complex128, n)
		CGEMMBlocked(NoTrans, NoTrans, n, 1, n, 1, ab, n, x, 1, 0, abx, 1)
		bx := make([]complex128, n)
		CGEMMBlocked(NoTrans, NoTrans, n, 1, n, 1, b, n, x, 1, 0, bx, 1)
		want := make([]complex128, n)
		CGEMMBlocked(NoTrans, NoTrans, n, 1, n, 1, a, n, bx, 1, 0, want, 1)
		return cmatDiff(abx, want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGEMM32MatchesFloat64(t *testing.T) {
	m, n, k := 17, 23, 31
	rng := rand.New(rand.NewSource(6))
	a32 := make([]float32, m*k)
	b32 := make([]float32, k*n)
	a64 := make([]float64, m*k)
	b64 := make([]float64, k*n)
	for i := range a32 {
		v := rng.NormFloat64()
		a32[i], a64[i] = float32(v), v
	}
	for i := range b32 {
		v := rng.NormFloat64()
		b32[i], b64[i] = float32(v), v
	}
	c32 := make([]float32, m*n)
	c64 := make([]float64, m*n)
	GEMM32(m, n, k, 1, a32, k, b32, n, 0, c32, n)
	GEMM64(m, n, k, 1, a64, k, b64, n, 0, c64, n)
	for i := range c64 {
		if math.Abs(float64(c32[i])-c64[i]) > 1e-3 {
			t.Fatalf("GEMM32 vs GEMM64 differ at %d: %g vs %g", i, c32[i], c64[i])
		}
	}
}

func TestFlopLedger(t *testing.T) {
	ResetFlops()
	n := 16
	a := randCMat(n, n, 1)
	b := randCMat(n, n, 2)
	c := make([]complex128, n*n)
	CGEMM(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
	if got, want := Flops(), CGEMMFlops(n, n, n); got != want {
		t.Errorf("ledger = %d, want %d", got, want)
	}
	if prev := ResetFlops(); prev == 0 {
		t.Error("ResetFlops returned 0 after work")
	}
	if Flops() != 0 {
		t.Error("ledger not zeroed")
	}
}

func TestJacobiEigenKnownMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	vals, vecs, err := JacobiEigenSym(2, []float64{2, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Errorf("eigenvalues = %v, want [1 3]", vals)
	}
	// Eigenvector for λ=3 is (1,1)/√2 up to sign.
	v := vecs[2:4]
	if math.Abs(math.Abs(v[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v[0]-v[1]) > 1e-10 {
		t.Errorf("eigenvector for λ=3 = %v", v)
	}
}

func TestJacobiEigenResiduals(t *testing.T) {
	n := 10
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i*n+j], a[j*n+i] = v, v
		}
	}
	vals, vecs, err := JacobiEigenSym(n, a)
	if err != nil {
		t.Fatal(err)
	}
	// Ascending order.
	for i := 1; i < n; i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
	// ||A v - λ v|| small for each pair; vectors orthonormal.
	for r := 0; r < n; r++ {
		v := vecs[r*n : (r+1)*n]
		av := make([]float64, n)
		MatVec64(n, n, a, n, v, av)
		for i := 0; i < n; i++ {
			if math.Abs(av[i]-vals[r]*v[i]) > 1e-8 {
				t.Fatalf("residual too large for eigenpair %d", r)
			}
		}
		for s := 0; s <= r; s++ {
			dot := Dot64(v, vecs[s*n:(s+1)*n])
			want := 0.0
			if s == r {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("eigenvectors not orthonormal (%d,%d): %g", r, s, dot)
			}
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Errorf("Norm2 = %g", Norm2(x))
	}
	y := []float64{1, 1}
	if Dot64(x, y) != 7 {
		t.Errorf("Dot64 = %g", Dot64(x, y))
	}
	Axpy64(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy64 = %v", y)
	}
}

func BenchmarkCGEMMNaive128(b *testing.B)    { benchCGEMM(b, CGEMM, 128) }
func BenchmarkCGEMMBlocked128(b *testing.B)  { benchCGEMM(b, CGEMMBlocked, 128) }
func BenchmarkCGEMMParallel128(b *testing.B) { benchCGEMM(b, CGEMMParallel, 128) }
func BenchmarkCGEMMParallel512(b *testing.B) { benchCGEMM(b, CGEMMParallel, 512) }

type cgemmFn func(Op, Op, int, int, int, complex128, []complex128, int, []complex128, int, complex128, []complex128, int)

func benchCGEMM(b *testing.B, fn cgemmFn, n int) {
	a := randCMat(n, n, 1)
	bb := randCMat(n, n, 2)
	c := make([]complex128, n*n)
	b.SetBytes(int64(16 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(NoTrans, NoTrans, n, n, n, 1, a, n, bb, n, 0, c, n)
	}
	b.ReportMetric(float64(CGEMMFlops(n, n, n))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}
