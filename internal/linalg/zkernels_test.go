package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// A kernelPath is one setting of the dispatch variables: the AVX-512 tier
// (the default on a host that has it), the AVX2 tier, or the Go reference.
type kernelPath struct {
	name         string
	avx2, avx512 bool
}

var (
	pathAVX512    = kernelPath{"avx512", true, true}
	pathAVX2      = kernelPath{"avx2", true, false}
	pathReference = kernelPath{"reference", false, false}
)

// available reports whether this host runs p's tier.
func (p kernelPath) available() bool {
	return (useAVX2 || !p.avx2) && (useAVX512 || !p.avx512)
}

// onPath runs f with the dispatch variables set to p. A tier the host lacks
// stays off, so there f runs on the next tier down.
func onPath(p kernelPath, f func()) {
	prev2, prev512, prevExp := useAVX2, useAVX512, useExpFMA
	useAVX2, useAVX512, useExpFMA = prev2 && p.avx2, prev512 && p.avx512, prevExp && p.avx2
	defer func() { useAVX2, useAVX512, useExpFMA = prev2, prev512, prevExp }()
	f()
}

// onReference runs f with the vector kernels switched off.
func onReference(f func()) { onPath(pathReference, f) }

// kernelTests are the tests that reach a vector kernel. A plain run takes
// the widest tier the host has; the TestKernelTestsOn*Path tests re-run
// them on the tiers below it.
var kernelTests = []struct {
	name string
	f    func(*testing.T)
}{
	{"CGEMMIdentity", TestCGEMMIdentity},
	{"BlockedAndParallelMatchNaive", TestBlockedAndParallelMatchNaive},
	{"CGEMMConjTrans", TestCGEMMConjTrans},
	{"CGEMMBlockedPropagatesNaN", TestCGEMMBlockedPropagatesNaN},
	{"CGEMMAssociativityProperty", TestCGEMMAssociativityProperty},
	{"CGEMMBlockedWorkerCountInvariance", TestCGEMMBlockedWorkerCountInvariance},
	{"CGEMMTileMatchesNaive", TestCGEMMTileMatchesNaive},
	{"ZKernelsShortSlicePanics", TestZKernelsShortSlicePanics},
	{"ZRotPairsIsTheRotation", TestZRotPairsIsTheRotation},
	{"GEMM32MatchesFloat64", TestGEMM32MatchesFloat64},
	{"GEMM64WorkerCountInvariance", TestGEMM64WorkerCountInvariance},
	{"GEMM64IsTheAscendingChain", TestGEMM64IsTheAscendingChain},
	{"GEMM64ShortSlicePanics", TestGEMM64ShortSlicePanics},
	{"CurlRowsMatchesReference", TestCurlRowsMatchesReference},
	{"CurlRowsShortSlicePanics", TestCurlRowsShortSlicePanics},
	{"ExpRowsMatchesMathExp", TestExpRowsMatchesMathExp},
	{"SiLURowsMatchesSiLU", TestSiLURowsMatchesSiLU},
	{"ExpRowsFuzzSeeds", TestExpRowsFuzzSeeds},
	{"SincosRowsMatchesMathSincos", TestSincosRowsMatchesMathSincos},
	{"SincosRowsShapePanics", TestSincosRowsShapePanics},
	{"SincosRowsFuzzSeeds", TestSincosRowsFuzzSeeds},
	{"GroundKernelsEveryShape", TestGroundKernelsEveryShape},
	{"GroundKernelsSignedZeros", TestGroundKernelsSignedZeros},
	{"GroundKernelsShortSlicePanics", TestGroundKernelsShortSlicePanics},
}

func runKernelTests(t *testing.T, p kernelPath) {
	onPath(p, func() {
		for _, kt := range kernelTests {
			t.Run(kt.name, kt.f)
		}
	})
}

// TestKernelTestsOnAVX2Path: on an AVX-512 host a plain run reaches the
// AVX-512 CGEMM tile, so the AVX2 one is tested here — it is the whole
// vector tier of a host without AVX-512.
func TestKernelTestsOnAVX2Path(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512: a plain run is the AVX2 path (or the reference)")
	}
	runKernelTests(t, pathAVX2)
}

// TestKernelTestsOnReferencePath: the Go reference, the only path off
// amd64, passes every kernel test too.
func TestKernelTestsOnReferencePath(t *testing.T) { runKernelTests(t, pathReference) }

// specials are the values a plain random draw never produces.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

// fuzzReal draws a value that is mostly ordinary and sometimes special (the
// share is set by rate, 0 = never).
func fuzzReal(rng *rand.Rand, rate int) float64 {
	if rate > 0 && rng.Intn(rate) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64()
}

// fuzzComplex draws a value from two fuzzReal parts.
func fuzzComplex(rng *rand.Rand, rate int) complex128 {
	return complex(fuzzReal(rng, rate), fuzzReal(rng, rate))
}

// fuzzField returns n values starting at an element offset into a larger
// backing array, so kernels see slices that are not 32-byte aligned.
func fuzzField(rng *rand.Rand, n, off, rate int) []complex128 {
	buf := make([]complex128, off+n)
	for i := range buf {
		buf[i] = fuzzComplex(rng, rate)
	}
	return buf[off:]
}

// sameBits64 reports whether got is bit-for-bit want, treating any NaN as
// equal to any NaN: which payload and sign a NaN result carries depends on
// operand order, which IEEE 754 leaves open and neither path promises.
func sameBits64(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// sameBits is sameBits64 on both parts.
func sameBits(got, want complex128) bool {
	return sameBits64(real(got), real(want)) && sameBits64(imag(got), imag(want))
}

func compareFields(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%x,%x), reference %v (%x,%x)", what, i,
				got[i], math.Float64bits(real(got[i])), math.Float64bits(imag(got[i])),
				want[i], math.Float64bits(real(want[i])), math.Float64bits(imag(want[i])))
		}
	}
}

// checkZKernels runs the three kernels against their Go references on one
// random problem, the CGEMM tile on each vector tier. With the vector
// kernels off (or off amd64) it compares the reference with itself, which
// still exercises the wrappers.
func checkZKernels(t *testing.T, seed int64, norb, n, k, off, rate int) {
	rng := rand.New(rand.NewSource(seed))

	// ZRotPairs: n rows paired up at random, each row in at most one pair.
	perm := rng.Perm(n)
	idx := make([]int32, 0, n)
	for i := 0; i+1 < n; i += 2 {
		idx = append(idx, int32(perm[i]), int32(perm[i+1]))
	}
	plan := NewZPairs(idx)
	c := rng.NormFloat64()
	f, b := fuzzComplex(rng, rate), fuzzComplex(rng, rate)
	got := fuzzField(rng, n*norb, off, rate)
	want := append([]complex128(nil), got...)
	ZRotPairs(got, norb, plan, c, f, b)
	zrotPairsGo(want, norb, idx, c, f, b)
	compareFields(t, "ZRotPairs", got, want)

	// ZPhaseRows, per-row phases and the single long row.
	rot := fuzzField(rng, n, off, rate)
	got = fuzzField(rng, n*norb, off, rate)
	want = append(want[:0], got...)
	ZPhaseRows(got, norb, rot)
	zphaseRowsGo(want, norb, rot)
	compareFields(t, "ZPhaseRows", got, want)
	ZPhaseRows(got, len(got), rot[:1])
	zphaseRowsGo(want, len(want), rot[:1])
	compareFields(t, "ZPhaseRows (one row)", got, want)

	// zgemmTile through cgemmAccumRange: m = n rows, norb columns, k deep.
	checkZGEMM(t, rng, n, norb, k, off, rate)
}

// checkZGEMM runs cgemmAccumRange on one random problem — m rows, cols
// columns, k deep, both op(A), padded leading dimensions — on each vector
// tier and on the Go reference, and wants one set of bits. C is followed by
// a guard of one ZMM's worth of values, which the kernels must not write.
func checkZGEMM(t *testing.T, rng *rand.Rand, m, cols, k, off, rate int) {
	const guard = 4
	alpha := fuzzComplex(rng, rate)
	for _, opA := range []Op{NoTrans, ConjTrans} {
		pad := rng.Intn(3)
		lda, ldb, ldc := k+pad, cols+pad, cols+pad
		aLen := m * lda
		if opA == ConjTrans {
			lda = m + pad
			aLen = k * lda
		}
		a := fuzzField(rng, aLen, off, rate)
		bm := fuzzField(rng, k*ldb, off, rate)
		c0 := fuzzField(rng, m*ldc+guard, off, rate)
		want := append([]complex128(nil), c0...)
		onReference(func() {
			cgemmAccumRange(opA, NoTrans, 0, m, cols, k, alpha, a, lda, bm, ldb, want[:m*ldc], ldc)
		})
		for _, p := range []kernelPath{pathAVX512, pathAVX2} {
			if !p.available() {
				continue
			}
			got := append([]complex128(nil), c0...)
			onPath(p, func() {
				cgemmAccumRange(opA, NoTrans, 0, m, cols, k, alpha, a, lda, bm, ldb, got[:m*ldc], ldc)
			})
			compareFields(t, fmt.Sprintf("zgemmTile on %s, op(A) %d, %dx%dx%d", p.name, opA, m, cols, k), got, want)
		}
	}
}

// TestZGEMMTileEveryShape runs checkZGEMM over every row tail of the
// 4-row block (m = 1…9) and every column tail of the 8- and 4-wide blocks
// (1…17 columns), at k on both sides of the 48-value p block, so a plain
// `go test` covers each masked and row-tail path of every tier.
func TestZGEMMTileEveryShape(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for m := 1; m <= 9; m++ {
		for cols := 1; cols <= 17; cols++ {
			for _, k := range []int{1, 2, 49} {
				checkZGEMM(t, rng, m, cols, k, (m+cols)%4, 6)
			}
		}
	}
}

// FuzzZKernels: every vector kernel equals its Go reference by Float64bits
// over random shapes (odd and 1 included; rows and columns 1…40, k across
// the 48-value p block), unaligned slice offsets, strided and conjugated A,
// signed zeros, subnormals, infinities and NaNs. The CGEMM tile is held to
// the reference on each vector tier (AVX-512 and AVX2) separately.
func FuzzZKernels(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(16), uint8(48), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(1), uint8(4))
	f.Add(int64(3), uint8(3), uint8(7), uint8(49), uint8(1), uint8(6))
	f.Add(int64(4), uint8(11), uint8(5), uint8(97), uint8(3), uint8(0))
	f.Add(int64(5), uint8(26), uint8(9), uint8(2), uint8(2), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, norb, n, k, off, rate uint8) {
		checkZKernels(t, seed, 1+int(norb%40), 1+int(n%40), 1+int(k%120), int(off%4), int(rate))
	})
}

// TestZRotPairsIsTheRotation pins the canonical formula to the mathematics:
// ZRotPairs equals c·a + f·b, c·b + bk·a in ordinary complex arithmetic up
// to round-off.
func TestZRotPairsIsTheRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const norb = 5
	data := fuzzField(rng, 4*norb, 1, 0)
	orig := append([]complex128(nil), data...)
	c, f, b := 0.8, complex(0.1, -0.59), complex(-0.1, -0.59)
	ZRotPairs(data, norb, NewZPairs([]int32{3, 0, 1, 2}), c, f, b)
	for _, pr := range [][2]int{{3, 0}, {1, 2}} {
		for s := 0; s < norb; s++ {
			va, vb := orig[pr[0]*norb+s], orig[pr[1]*norb+s]
			wantA := complex(c, 0)*va + f*vb
			wantB := complex(c, 0)*vb + b*va
			if d := data[pr[0]*norb+s] - wantA; math.Hypot(real(d), imag(d)) > 1e-14 {
				t.Fatalf("row a of pair %v, orbital %d: %v, want %v", pr, s, data[pr[0]*norb+s], wantA)
			}
			if d := data[pr[1]*norb+s] - wantB; math.Hypot(real(d), imag(d)) > 1e-14 {
				t.Fatalf("row b of pair %v, orbital %d: %v, want %v", pr, s, data[pr[1]*norb+s], wantB)
			}
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestZKernelsShortSlicePanics: the assembly checks nothing, so the Go
// wrappers must refuse a slice that is too short before it is scribbled
// past. Each field sits inside a larger canary-filled array.
func TestZKernelsShortSlicePanics(t *testing.T) {
	const norb, rows = 4, 6
	canary := complex(12345.5, -54321.25)
	backing := make([]complex128, 2*rows*norb)
	for i := range backing {
		backing[i] = canary
	}
	short := backing[: rows*norb-1 : rows*norb-1]

	plan := NewZPairs([]int32{0, 5, 1, 4})
	mustPanic(t, "ZRotPairs on a short field", func() { ZRotPairs(short, norb, plan, 1, 0, 0) })
	mustPanic(t, "ZRotPairs on a chunk of the plan", func() { ZRotPairs(short, norb, plan.Slice(1, 2), 1, 0, 0) })
	mustPanic(t, "ZRotPairs with norb 0", func() { ZRotPairs(short, 0, plan, 1, 0, 0) })
	mustPanic(t, "ZPhaseRows on a short field", func() { ZPhaseRows(short, norb, make([]complex128, rows)) })
	mustPanic(t, "ZPhaseRows with norb 0", func() { ZPhaseRows(short, 0, make([]complex128, rows)) })
	mustPanic(t, "NewZPairs with a negative index", func() { NewZPairs([]int32{0, -1}) })
	mustPanic(t, "NewZPairs with an odd list", func() { NewZPairs([]int32{0, 1, 2}) })

	a := make([]complex128, rows*norb)
	b := make([]complex128, norb*norb)
	mustPanic(t, "CGEMMBlocked with a short C", func() {
		CGEMMBlocked(NoTrans, NoTrans, rows, norb, norb, 1, a, norb, b, norb, 1, short, norb)
	})
	mustPanic(t, "CGEMMBlocked with a short A", func() {
		CGEMMBlocked(ConjTrans, NoTrans, norb, norb, rows, 1, short, norb, a, norb, 0, b, norb)
	})
	mustPanic(t, "CGEMMBlocked with a short B", func() {
		CGEMMBlocked(NoTrans, NoTrans, norb, norb, rows, 1, a, rows, short, norb, 0, b, norb)
	})
	for i, v := range backing {
		if v != canary {
			t.Fatalf("a rejected call wrote element %d", i)
		}
	}
}

// --- kernel vs reference benchmarks (qd.dcmesh shapes: 16³ × 8 orbitals) ---

const benchGrid, benchOrb = 4096, 8

func benchBothPaths(b *testing.B, f func()) {
	b.Run("kernel", func(b *testing.B) {
		if !useAVX2 {
			b.Skip("no AVX2: the kernel is the reference")
		}
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	b.Run("reference", func(b *testing.B) {
		onReference(func() {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
	})
}

// benchTiers runs f as one sub-benchmark per tier: avx512, avx2, reference.
func benchTiers(b *testing.B, f func()) {
	for _, p := range []kernelPath{pathAVX512, pathAVX2, pathReference} {
		b.Run(p.name, func(b *testing.B) {
			if !p.available() {
				b.Skip("this host lacks the tier")
			}
			onPath(p, func() {
				for i := 0; i < b.N; i++ {
					f()
				}
			})
		})
	}
}

func BenchmarkZRotPairs(b *testing.B) {
	data := fuzzField(rand.New(rand.NewSource(1)), benchGrid*benchOrb, 0, 0)
	idx := make([]int32, benchGrid)
	for i := range idx {
		idx[i] = int32(i)
	}
	plan := NewZPairs(idx)
	benchBothPaths(b, func() { ZRotPairs(data, benchOrb, plan, 0.8, complex(0.1, -0.59), complex(-0.1, -0.59)) })
}

func BenchmarkZPhaseRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := fuzzField(rng, benchGrid*benchOrb, 0, 0)
	rot := make([]complex128, benchGrid)
	for i := range rot {
		s, c := math.Sincos(rng.Float64())
		rot[i] = complex(c, s)
	}
	benchBothPaths(b, func() { ZPhaseRows(data, benchOrb, rot) })
}

// BenchmarkScissorGEMMs is the CGEMM pair of one scissor correction:
// O = Ψ0†Ψ (Gram shape), then Ψ −= δ Ψ0 O (tall-skinny update), on each
// tier of the CGEMM tile.
func BenchmarkScissorGEMMs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	psi0 := fuzzField(rng, benchGrid*benchOrb, 0, 0)
	psi := fuzzField(rng, benchGrid*benchOrb, 0, 0)
	o := make([]complex128, benchOrb*benchOrb)
	benchTiers(b, func() {
		CGEMMBlocked(ConjTrans, NoTrans, benchOrb, benchOrb, benchGrid, 1, psi0, benchOrb, psi, benchOrb, 0, o, benchOrb)
		CGEMMBlocked(NoTrans, NoTrans, benchGrid, benchOrb, benchOrb, -1e-6, psi0, benchOrb, o, benchOrb, 1, psi, benchOrb)
	})
}
