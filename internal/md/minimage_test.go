package md

import (
	"math"
	"math/rand"
	"testing"
)

// sameMinImage fails unless every min-image entry point returns the bits of
// the reference formula d − l·Round(d/l) (minImageFormula) for displacement d in a
// box of length l.
func sameMinImage(t *testing.T, d, l float64) {
	t.Helper()
	want := math.Float64bits(minImageFormula(d, l))
	if got := math.Float64bits(NewPeriod(l).MinImage(d)); got != want {
		t.Fatalf("Period(%v).MinImage(%v) = %#x, formula %#x", l, d, got, want)
	}
	if got := math.Float64bits(MinImage1(d, l)); got != want {
		t.Fatalf("MinImage1(%v, %v) = %#x, formula %#x", d, l, got, want)
	}
}

// TestMinImageFastPathBits pins the fast path to the formula at every edge
// of its domain: signed zeros, the 0.49·l bound and the 0.5·l rounding point
// with their float neighbours, whole box lengths, subnormals and non-finite
// displacements, on ordinary, tiny and huge boxes.
func TestMinImageFastPathBits(t *testing.T) {
	boxes := []float64{
		1, 18.7, 7.0 / 3, 1e-3, 1e300, 0x1p-1022, // ordinary, huge, smallest normal
		5e-324, 1e-323, 1.5e-323, 1e-310, // subnormal lengths: 0.49·l rounds coarsely
	}
	for _, l := range boxes {
		near := 0.49 * l
		ds := []float64{0, 5e-324, 1e-310, 0x1p-1022, math.NaN(), math.Inf(1), math.MaxFloat64}
		for _, f := range []float64{0.25, 0.49, 0.5, 0.51, 1, 1.49, 1.5, 2.5, 3, 7.5, 1e6} {
			c := f * l
			ds = append(ds, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
		}
		ds = append(ds, near, math.Nextafter(near, 0), math.Nextafter(near, math.Inf(1)))
		for _, d := range ds {
			sameMinImage(t, d, l)
			sameMinImage(t, -d, l)
		}
	}
	// −0 is the one input the fast path may not return unchanged.
	if b := math.Float64bits(NewPeriod(2).MinImage(math.Copysign(0, -1))); b != 0 {
		t.Errorf("MinImage(-0) = %#x, want +0", b)
	}
}

// FuzzMinImage1 checks bit equality of the fast path against the formula on
// arbitrary displacements and (positive, finite) box lengths.
func FuzzMinImage1(f *testing.F) {
	f.Add(0.3, 2.0)
	f.Add(-0.98, 2.0)
	f.Add(1.0, 2.0)
	f.Add(math.Copysign(0, -1), 18.7)
	f.Add(1e308, 1e-308)
	f.Add(math.NaN(), 3.0)
	f.Fuzz(func(t *testing.T, d, l float64) {
		l = math.Abs(l)
		if l == 0 || math.IsInf(l, 0) || math.IsNaN(l) {
			t.Skip("not a box length")
		}
		sameMinImage(t, d, l)
	})
}

// BenchmarkMinImage1 times the per-pair min-image on displacements drawn
// like a neighbor sweep's: almost all within the fast path, about one in
// sixteen wrapped across the box.
func BenchmarkMinImage1(b *testing.B) {
	const l = 18.7
	ds := make([]float64, 1024)
	for i := range ds {
		ds[i] = 2.3 * (float64(i%97)/48 - 1)
		if i%16 == 0 {
			ds[i] += l
		}
	}
	b.Run("fast", func(b *testing.B) {
		p := NewPeriod(l)
		var s float64
		for i := 0; i < b.N; i++ {
			s += p.MinImage(ds[i&1023])
		}
		sinkF = s
	})
	b.Run("formula", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += minImageFormula(ds[i&1023], l)
		}
		sinkF = s
	})
}

var sinkF float64

// TestWrap1MatchesMod pins wrap1's shortcuts to the formula (wrapFormula,
// math.Mod then +l for a negative remainder) by Float64bits: signed zeros,
// ±l, ±2l and their float neighbours, the largest finite values, ±Inf and
// NaN, on ordinary, huge, subnormal and non-finite box lengths, then 10⁶
// random bit patterns.
func TestWrap1MatchesMod(t *testing.T) {
	same := func(x, l float64) {
		t.Helper()
		if got, want := math.Float64bits(wrap1(x, l)), math.Float64bits(wrapFormula(x, l)); got != want {
			t.Fatalf("wrap1(%v, %v) = %#x, formula %#x", x, l, got, want)
		}
	}
	boxes := []float64{
		1, 18.7, 7.0 / 3, 1e-3, 1e300, math.MaxFloat64, 0x1p-1022,
		5e-324, 1e-323, 1e-310, // subnormal lengths
		math.Inf(1), math.NaN(), 0, -18.7,
	}
	for _, l := range boxes {
		xs := []float64{0, 5e-324, 1e-310, 0.5 * l, math.MaxFloat64, math.Inf(1), math.NaN()}
		for _, f := range []float64{1, 1.5, 2, 3, 1e6} {
			c := f * l
			xs = append(xs, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
		}
		for _, x := range xs {
			same(x, l)
			same(-x, l)
		}
	}
	// Random bit patterns. math.Mod takes one loop trip per binade between x
	// and l, so the million patterns keep x's exponent within 4 binades of
	// l's, where the shortcuts and their edges are; a further 20 000 draw
	// every bit of x, and of both x and l.
	rng := rand.New(rand.NewSource(29))
	for k := 0; k < 1_000_000; k++ {
		l := boxes[k%7]
		e := int64(math.Float64bits(l)>>52) + rng.Int63n(9) - 4
		x := math.Float64frombits(rng.Uint64()&(1<<63|1<<52-1) | uint64(min(max(e, 0), 2047))<<52)
		same(x, l)
	}
	for k := 0; k < 20_000; k++ {
		x := math.Float64frombits(rng.Uint64())
		same(x, boxes[k%7])
		same(x, math.Float64frombits(rng.Uint64()&^(1<<63)))
	}
	// Displacements of an ordinary step: within a box length or two.
	for k := 0; k < 100_000; k++ {
		same(18.7*(4*rng.Float64()-2), 18.7)
	}
}
