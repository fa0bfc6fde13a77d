package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expHalfway returns a float64 x near (k+½)·ln 2 for which the stdlib's
// first step, the rounded product x·log2e, is exactly k+½: the reduction's
// tie, which CVTSD2SL and VCVTPD2DQ must both break to even. Not every k has
// one.
func expHalfway(k int) (float64, bool) {
	h := float64(k) + 0.5
	x := h / expLog2e
	for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
		for y, i := x, 0; i < 8; y, i = math.Nextafter(y, dir), i+1 {
			if y*expLog2e == h {
				return y, true
			}
		}
	}
	return 0, false
}

// expEdges are the arguments where a vector exp is most likely to part from
// math.Exp: signed zeros, the not-finite inputs, both ends of the kernel's
// range and their neighbours, the overflow edge, arguments whose results are
// subnormal or underflow to zero, and the reduction's ties (appended by
// expEdgeTable).
var expEdges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	expKernelMin, math.Nextafter(expKernelMin, 0), math.Nextafter(expKernelMin, -1000),
	expKernelMax, math.Nextafter(expKernelMax, 0), math.Nextafter(expKernelMax, 1000),
	709.78, 7.09782712893384e+02, math.Nextafter(7.09782712893384e+02, 0), math.Nextafter(7.09782712893384e+02, 1000),
	-708.4, -708.5, -709, -710, -720, -730, -740, -744, -745, -745.13, -745.2, -746, -1000,
	1e-300, -1e-300, math.SmallestNonzeroFloat64, 1, -1, math.Ln2, -math.Ln2,
	math.MaxFloat64, -math.MaxFloat64,
}

// expEdgeTable is expEdges and every tie k+½ of the reduction the range
// has; it fails unless there are ties below and above zero with even and odd
// k.
func expEdgeTable(t *testing.T) []float64 {
	x := append([]float64(nil), expEdges...)
	var kinds [2][2]int // [k < 0][k odd]
	for k := -1022; k <= 1022; k++ {
		if h, ok := expHalfway(k); ok {
			x = append(x, h)
			neg := 0
			if k < 0 {
				neg = 1
			}
			kinds[neg][k&1]++
		}
	}
	if kinds[0][0] == 0 || kinds[0][1] == 0 || kinds[1][0] == 0 || kinds[1][1] == 0 {
		t.Fatalf("reduction ties by sign and parity of k: %v", kinds)
	}
	return x
}

// expArg draws one argument by mode: 0 the kernel's range, 1 a normal draw
// of the radial-basis and SiLU scale, 2 a random bit pattern, 3 the range
// and a margin past both ends, 4 an edge.
func expArg(rng *rand.Rand, mode int, edges []float64) float64 {
	switch mode % 5 {
	case 0:
		return expKernelMin + (expKernelMax-expKernelMin)*rng.Float64()
	case 1:
		return 8 * rng.NormFloat64()
	case 2:
		return math.Float64frombits(rng.Uint64())
	case 3:
		return -760 + 1480*rng.Float64()
	}
	return edges[rng.Intn(len(edges))]
}

// compareExact wants got equal to want by Float64bits, NaN payloads included.
func compareExact(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%x), want %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkExpRows runs ExpRows on src (out of place and in place) and SiLURows
// on the same values (dy apart from x and dy = x), and wants math.Exp and
// SiLU by Float64bits.
func checkExpRows(t *testing.T, what string, src []float64) {
	t.Helper()
	want := make([]float64, len(src))
	wantY := make([]float64, len(src))
	wantDy := make([]float64, len(src))
	for i, x := range src {
		want[i] = math.Exp(x)
		wantY[i], wantDy[i] = SiLU(x)
	}
	orig := append([]float64(nil), src...)
	got := make([]float64, len(src))
	ExpRows(got, src)
	compareExact(t, "ExpRows, "+what, got, want)
	compareExact(t, "ExpRows source, "+what, src, orig)
	ExpRows(src, src)
	compareExact(t, "ExpRows in place, "+what, src, want)

	copy(src, orig)
	y := make([]float64, len(src))
	dy := make([]float64, len(src))
	SiLURows(y, dy, src)
	compareExact(t, "SiLURows y, "+what, y, wantY)
	compareExact(t, "SiLURows dy, "+what, dy, wantDy)
	for i := range y {
		y[i] = 0
	}
	SiLURows(y, src, src)
	compareExact(t, "SiLURows y with dy = x, "+what, y, wantY)
	compareExact(t, "SiLURows dy = x, "+what, src, wantDy)
	copy(src, orig)
}

// expRowsProblem fills n arguments by mode at an element offset into a
// larger array, so the kernel sees unaligned slices.
func expRowsProblem(rng *rand.Rand, n, off, mode int, edges []float64) []float64 {
	buf := make([]float64, off+n)
	for i := range buf {
		m := mode
		if mode >= 5 { // a mix of every mode
			m = rng.Intn(5)
		}
		buf[i] = expArg(rng, m, edges)
	}
	return buf[off:]
}

// TestExpRowsMatchesMathExp: ExpRows is math.Exp by Float64bits on the edge
// table (each edge in every lane of an otherwise ordinary group, and the
// table as one row), on 10⁶ random arguments — the kernel's range, a margin
// past it, and random bit patterns — and on every length 0–9 at every
// alignment, out of place and in place.
func TestExpRowsMatchesMathExp(t *testing.T) {
	edges := expEdgeTable(t)
	checkExpRows(t, "edge table", append([]float64(nil), edges...))
	for _, x := range edges {
		for lane := 0; lane < 4; lane++ {
			row := []float64{-0.5, 1.25, -3, 2, 0.75, -1.5, 4, -2.5}
			row[lane] = x
			checkExpRows(t, fmt.Sprintf("edge %v in lane %d", x, lane), row)
		}
	}
	rng := rand.New(rand.NewSource(25))
	for mode := 0; mode < 4; mode++ {
		checkExpRows(t, fmt.Sprintf("random mode %d", mode), expRowsProblem(rng, 250000, mode, mode, edges))
	}
	for n := 0; n <= 9; n++ {
		for off := 0; off < 4; off++ {
			for mode := 0; mode <= 5; mode++ {
				checkExpRows(t, fmt.Sprintf("n %d off %d mode %d", n, off, mode), expRowsProblem(rng, n, off, mode, edges))
			}
		}
	}
}

// TestSiLURowsMatchesSiLU: SiLURows is SiLU lane by lane (y and dy, with dy
// apart from x and dy = x) at the arguments where exp(−x) leaves the kernel's
// range, and SiLU is the textbook formula.
func TestSiLURowsMatchesSiLU(t *testing.T) {
	var row []float64
	for _, x := range []float64{-expKernelMax, math.Nextafter(-expKernelMax, 0), math.Nextafter(-expKernelMax, -1000),
		-expKernelMin, math.Nextafter(-expKernelMin, 0), math.Nextafter(-expKernelMin, 1000),
		-750, 750, 40, -40, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
		row = append(row, x, 0.5, -0.25, 1.5)
	}
	checkExpRows(t, "SiLU edges", row)
	rng := rand.New(rand.NewSource(26))
	for n := 0; n <= 9; n++ {
		checkExpRows(t, fmt.Sprintf("n %d", n), expRowsProblem(rng, n, n%4, 1, nil))
	}
	for _, x := range []float64{-3, -0.5, 0.25, 2, 17} {
		y, dy := SiLU(x)
		s := 1 / (1 + math.Exp(-x))
		if math.Abs(y-x*s) > 1e-15*math.Abs(y) || math.Abs(dy-(s+x*s*(1-s))) > 1e-15 {
			t.Errorf("SiLU(%v) = %v, %v; want %v, %v", x, y, dy, x*s, s+x*s*(1-s))
		}
	}
}

// expFuzzSeeds are FuzzExpRows's seed corpus, also run on every path by
// kernelTests.
var expFuzzSeeds = []struct {
	seed         int64
	x            float64
	n, off, mode uint8
}{
	{1, 0.5, 8, 0, 0}, {2, math.NaN(), 5, 1, 5}, {3, -745.2, 33, 2, 2},
	{4, 709.78, 17, 3, 3}, {5, -708, 4, 0, 1}, {6, math.Inf(-1), 70, 1, 4},
}

// checkExpFuzz is FuzzExpRows's body: a row of 0–99 arguments of one mode
// (or a mix), with x at a seed-chosen position.
func checkExpFuzz(t *testing.T, seed int64, x float64, n, off, mode uint8) {
	rng := rand.New(rand.NewSource(seed))
	src := expRowsProblem(rng, int(n%100), int(off%4), int(mode%6), expEdges)
	if len(src) > 0 {
		src[rng.Intn(len(src))] = x
	}
	checkExpRows(t, fmt.Sprintf("seed %d x %v", seed, x), src)
}

// FuzzExpRows: ExpRows equals math.Exp, and SiLURows equals SiLU, by
// Float64bits on fuzzed rows: lengths that end in every tail, unaligned
// slices, arguments in and past the kernel's range, random bit patterns, and
// one fuzzed argument anywhere in the row.
func FuzzExpRows(f *testing.F) {
	for _, s := range expFuzzSeeds {
		f.Add(s.seed, s.x, s.n, s.off, s.mode)
	}
	f.Fuzz(checkExpFuzz)
}

// TestExpRowsFuzzSeeds runs FuzzExpRows's seed corpus, so kernelTests take it
// on every path.
func TestExpRowsFuzzSeeds(t *testing.T) {
	for _, s := range expFuzzSeeds {
		checkExpFuzz(t, s.seed, s.x, s.n, s.off, s.mode)
	}
}

// TestExpRowsShapePanics: the kernels check nothing, so the wrappers refuse
// operands of different lengths before anything is written.
func TestExpRowsShapePanics(t *testing.T) {
	a, b := make([]float64, 8), make([]float64, 7)
	mustPanic(t, "ExpRows with a short destination", func() { ExpRows(b, a) })
	mustPanic(t, "ExpRows with a long destination", func() { ExpRows(a, b) })
	mustPanic(t, "SiLURows with a short y", func() { SiLURows(b, a, a) })
	mustPanic(t, "SiLURows with a short dy", func() { SiLURows(a, b, a) })
	mustPanic(t, "SiLURows with a long x", func() { SiLURows(b, b, a) })
	for i, v := range b {
		if v != 0 {
			t.Fatalf("a rejected call wrote element %d", i)
		}
	}
}

// Go spellings of the two blocks of the stdlib's amd64 exp: the unfused one
// and the avxfma one (math.FMA is the correctly rounded fused operation of
// VFMADD/VFNMADD). They serve only to show that expProbe tells them apart.
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor are the chain's coefficients from 1/8! down to 1.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
	4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0,
}

func stdlibExpBlock(x float64, fused bool) float64 {
	k := math.RoundToEven(float64(expLog2e * x))
	if fused {
		x = math.FMA(-k, expLn2U, x)
		x = math.FMA(-k, expLn2L, x)
	} else {
		x -= float64(k * expLn2U)
		x -= float64(k * expLn2L)
	}
	x = float64(x * 0.0625)
	p := expTaylor[0]
	for _, c := range expTaylor[1:] {
		if fused {
			p = math.FMA(p, x, c)
		} else {
			p = float64(p*x) + c
		}
	}
	x = float64(x * p)
	for i := 0; i < 3; i++ {
		x = float64(x * (x + 2))
	}
	if fused {
		x = math.FMA(x+2, x, 1)
	} else {
		x = float64(x*(x+2)) + 1
	}
	return x * math.Float64frombits(uint64(int64(k)+0x3ff)<<52)
}

// mathExpIsFused reports whether this process's math.Exp is the stdlib's
// fused block on every probe argument (false if it is the unfused one), and
// whether it is either block at all (Go's amd64 exp).
func mathExpIsFused() (fused, amd64Exp bool) {
	fused = true
	for _, x := range expProbe {
		f, u, got := stdlibExpBlock(x, true), stdlibExpBlock(x, false), math.Exp(x)
		if got != f && got != u {
			return false, false
		}
		fused = fused && got == f
	}
	return fused, true
}

// TestExpProbeSeparatesFusedPaths pins the self-check's premise on every
// host: the stdlib's two blocks differ on a quarter of the probe arguments,
// and useExpFMA holds only where math.Exp is the fused block (so under
// GODEBUG=cpu.fma=off it is false even on an FMA host).
func TestExpProbeSeparatesFusedPaths(t *testing.T) {
	differ := 0
	for _, x := range expProbe {
		if stdlibExpBlock(x, true) != stdlibExpBlock(x, false) {
			differ++
		}
	}
	if differ < len(expProbe)/4 {
		t.Errorf("the fused and unfused blocks differ on %d probe arguments, want at least %d", differ, len(expProbe)/4)
	}
	fused, amd64Exp := mathExpIsFused()
	if !amd64Exp {
		t.Skip("math.Exp is neither block of Go's amd64 exp on this GOARCH")
	}
	if useExpFMA && !fused {
		t.Error("useExpFMA is set, but this process's math.Exp is the unfused block")
	}
}

// BenchmarkExpRows times ExpRows over one row of radial-basis-scale
// arguments, the kernel against its reference, in ns per element.
func BenchmarkExpRows(b *testing.B) {
	src := expRowsProblem(rand.New(rand.NewSource(1)), 4096, 0, 1, nil)
	dst := make([]float64, len(src))
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpRows(dst, src)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
	}
	b.Run("kernel", func(b *testing.B) {
		if !useExpFMA {
			b.Skip("no exp kernel: ExpRows is the reference")
		}
		run(b)
	})
	b.Run("reference", func(b *testing.B) { onReference(func() { run(b) }) })
}

// BenchmarkSiLURows times SiLURows over nn.allegro's activation block (256
// rows × 96), the kernel against its reference, in ns per element.
func BenchmarkSiLURows(b *testing.B) {
	x := expRowsProblem(rand.New(rand.NewSource(1)), 256*96, 0, 1, nil)
	y, dy := make([]float64, len(x)), make([]float64, len(x))
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SiLURows(y, dy, x)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
	}
	b.Run("kernel", func(b *testing.B) {
		if !useExpFMA {
			b.Skip("no exp kernel: SiLURows is the reference")
		}
		run(b)
	})
	b.Run("reference", func(b *testing.B) { onReference(func() { run(b) }) })
}
