package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sincosEdges are the arguments where a vector sincos is most likely to part
// from math.Sincos: signed zeros, the not-finite inputs, both sides of the
// reduction threshold, subnormals, the octant boundaries kπ/4 and their
// neighbours, and the cosine cutoff's end point π.
func sincosEdges() []float64 {
	x := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		sincosReduceMax, math.Nextafter(sincosReduceMax, 0), -sincosReduceMax, math.Nextafter(-sincosReduceMax, 0),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, 1e-300,
		math.MaxFloat64, -math.MaxFloat64, math.Pi, -math.Pi, 2 * math.Pi,
	}
	for k := 1; k <= 16; k++ {
		b := float64(k) * math.Pi / 4
		x = append(x, b, -b, math.Nextafter(b, 0), math.Nextafter(b, 100))
	}
	return x
}

// sincosArg draws one argument by mode: 0 the cutoff phase [0, π], 1 a
// normal draw of the potential phase scale, 2 a random bit pattern, 3 up to
// and past the reduction threshold, 4 an edge.
func sincosArg(rng *rand.Rand, mode int, edges []float64) float64 {
	switch mode % 5 {
	case 0:
		return math.Pi * rng.Float64()
	case 1:
		return 8 * rng.NormFloat64()
	case 2:
		return math.Float64frombits(rng.Uint64())
	case 3:
		return (rng.Float64() - 0.5) * 2.5 * sincosReduceMax
	}
	return edges[rng.Intn(len(edges))]
}

// checkSincosRows runs SincosRows on x apart and in place (into sin, then
// into cos) and wants math.Sincos by Float64bits — which is math.Sin and
// math.Cos by Float64bits too, but at a NaN, where math.Sin and math.Cos
// return the argument and math.Sincos math.NaN().
func checkSincosRows(t *testing.T, what string, x []float64) {
	t.Helper()
	ws, wc := make([]float64, len(x)), make([]float64, len(x))
	for i, v := range x {
		ws[i], wc[i] = math.Sincos(v)
		if v == v && (math.Float64bits(ws[i]) != math.Float64bits(math.Sin(v)) || math.Float64bits(wc[i]) != math.Float64bits(math.Cos(v))) {
			t.Fatalf("%s: math.Sincos(%v) is not math.Sin and math.Cos by bits", what, v)
		}
	}
	orig := append([]float64(nil), x...)
	s, c := make([]float64, len(x)), make([]float64, len(x))
	SincosRows(s, c, x)
	compareExact(t, "SincosRows sin, "+what, s, ws)
	compareExact(t, "SincosRows cos, "+what, c, wc)
	compareExact(t, "SincosRows argument, "+what, x, orig)
	SincosRows(x, c, x)
	compareExact(t, "SincosRows sin in place, "+what, x, ws)
	copy(x, orig)
	SincosRows(s, x, x)
	compareExact(t, "SincosRows cos in place, "+what, x, wc)
	copy(x, orig)
}

// sincosRowsProblem fills n arguments by mode (5 = a mix) at an element
// offset into a larger array, so the kernel sees unaligned slices.
func sincosRowsProblem(rng *rand.Rand, n, off, mode int, edges []float64) []float64 {
	buf := make([]float64, off+n)
	for i := range buf {
		m := mode
		if mode >= 5 {
			m = rng.Intn(5)
		}
		buf[i] = sincosArg(rng, m, edges)
	}
	return buf[off:]
}

// TestSincosRowsMatchesMathSincos: SincosRows is math.Sincos (and math.Sin,
// math.Cos) by Float64bits on the edge table (each edge in every lane of an
// otherwise ordinary group), on 4·10⁵ random arguments, and on every length
// 0–67 at every alignment, apart and in place.
func TestSincosRowsMatchesMathSincos(t *testing.T) {
	edges := sincosEdges()
	checkSincosRows(t, "edge table", append([]float64(nil), edges...))
	for _, x := range edges {
		for lane := 0; lane < 4; lane++ {
			row := []float64{0.5, -1.25, 3, -2, 0.75, 1.5, -4, 2.5}
			row[lane] = x
			checkSincosRows(t, fmt.Sprintf("edge %v in lane %d", x, lane), row)
		}
	}
	rng := rand.New(rand.NewSource(50))
	for mode := 0; mode < 4; mode++ {
		checkSincosRows(t, fmt.Sprintf("random mode %d", mode), sincosRowsProblem(rng, 100000, mode, mode, edges))
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			checkSincosRows(t, fmt.Sprintf("n %d off %d", n, off), sincosRowsProblem(rng, n, off, 5, edges))
		}
	}
}

// TestSincosRowsShapePanics: the kernel checks nothing, so the wrapper
// refuses operands of different lengths before anything is written.
func TestSincosRowsShapePanics(t *testing.T) {
	a, b := make([]float64, 8), make([]float64, 7)
	mustPanic(t, "SincosRows with a short sin", func() { SincosRows(b, a, a) })
	mustPanic(t, "SincosRows with a short cos", func() { SincosRows(a, b, a) })
	mustPanic(t, "SincosRows with a long x", func() { SincosRows(b, b, a) })
	for i, v := range b {
		if v != 0 {
			t.Fatalf("a rejected call wrote element %d", i)
		}
	}
}

// sincosFuzzSeeds are FuzzSincosRows's seed corpus, also run on every path by
// kernelTests: NaN and ±Inf lanes (the scalar fallback), the threshold, and
// row lengths that end in every tail.
var sincosFuzzSeeds = []struct {
	seed         int64
	x            float64
	n, off, mode uint8
}{
	{1, 0.5, 8, 0, 0}, {2, math.NaN(), 5, 1, 5}, {3, math.Inf(1), 33, 2, 2},
	{4, math.Inf(-1), 67, 3, 1}, {5, sincosReduceMax, 4, 0, 3}, {6, math.Pi, 0, 1, 4},
	{7, -3 * math.Pi / 4, 66, 2, 5}, {8, math.Copysign(0, -1), 65, 3, 0},
}

// checkSincosFuzz is FuzzSincosRows's body: a row of 0–67 arguments of one
// mode (or a mix), with x at a seed-chosen position.
func checkSincosFuzz(t *testing.T, seed int64, x float64, n, off, mode uint8) {
	rng := rand.New(rand.NewSource(seed))
	src := sincosRowsProblem(rng, int(n%68), int(off%4), int(mode%6), sincosEdges())
	if len(src) > 0 {
		src[rng.Intn(len(src))] = x
	}
	checkSincosRows(t, fmt.Sprintf("seed %d x %v", seed, x), src)
}

// FuzzSincosRows: SincosRows equals math.Sincos by Float64bits on fuzzed
// rows: lengths that end in every tail, unaligned slices, arguments in and
// past the kernel's range, random bit patterns, and one fuzzed argument
// anywhere in the row.
func FuzzSincosRows(f *testing.F) {
	for _, s := range sincosFuzzSeeds {
		f.Add(s.seed, s.x, s.n, s.off, s.mode)
	}
	f.Fuzz(checkSincosFuzz)
}

// TestSincosRowsFuzzSeeds runs FuzzSincosRows's seed corpus, so kernelTests
// take it on every path.
func TestSincosRowsFuzzSeeds(t *testing.T) {
	for _, s := range sincosFuzzSeeds {
		checkSincosFuzz(t, s.seed, s.x, s.n, s.off, s.mode)
	}
}

// BenchmarkSincosRows: ns per element of the kernel and of the reference
// loop, over a row of cutoff phases.
func BenchmarkSincosRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := sincosRowsProblem(rng, 1024, 0, 0, nil)
	s, c := make([]float64, len(x)), make([]float64, len(x))
	for _, p := range []kernelPath{pathAVX2, pathReference} {
		b.Run(p.name, func(b *testing.B) {
			onPath(p, func() {
				for i := 0; i < b.N; i++ {
					SincosRows(s, c, x)
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
		})
	}
}
