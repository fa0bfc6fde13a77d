package precision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mlmd/internal/linalg"
)

func TestBF16ExactValues(t *testing.T) {
	// Powers of two and small integers are exactly representable.
	for _, v := range []float32{0, 1, -1, 2, 0.5, 0.25, 4, -8, 96, 1.5} {
		if got := FromFloat32(v).Float32(); got != v {
			t.Errorf("BF16 round trip of %g gave %g", v, got)
		}
	}
}

func TestBF16RelativeError(t *testing.T) {
	// 7 mantissa bits ⇒ relative error ≤ 2^-8 for normal values.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6)))
		if v == 0 {
			continue
		}
		got := FromFloat32(v).Float32()
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		if rel > 1.0/256 {
			t.Fatalf("BF16(%g) = %g, rel err %g > 2^-8", v, got, rel)
		}
	}
}

func TestBF16NaNStaysNaN(t *testing.T) {
	nan := float32(math.NaN())
	if got := FromFloat32(nan).Float32(); got == got {
		t.Error("NaN did not survive BF16 rounding")
	}
}

func TestBF16MonotoneProperty(t *testing.T) {
	// Rounding preserves (weak) order.
	f := func(a, b float32) bool {
		if a != a || b != b || math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return FromFloat32(a).Float32() <= FromFloat32(b).Float32()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSplitConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		v := float32(rng.NormFloat64())
		var errs [4]float64
		for n := 1; n <= 3; n++ {
			var sum float32
			for _, c := range splitMatrix([]float32{v}, n) {
				sum += c[0]
			}
			errs[n] = math.Abs(float64(sum - v))
		}
		if errs[2] > errs[1]+1e-12 || errs[3] > errs[2]+1e-12 {
			t.Fatalf("split error not decreasing for %g: %v", v, errs[1:])
		}
		// Three components reconstruct a float32 essentially exactly.
		if errs[3] > 1e-7*math.Abs(float64(v))+1e-12 {
			t.Fatalf("BF16x3 reconstruction error %g for %g", errs[3], v)
		}
	}
}

func refGEMM64(m, n, k int, a, b []float32) []float64 {
	a64 := make([]float64, len(a))
	b64 := make([]float64, len(b))
	for i, v := range a {
		a64[i] = float64(v)
	}
	for i, v := range b {
		b64[i] = float64(v)
	}
	c := make([]float64, m*n)
	linalg.GEMM64(m, n, k, 1, a64, k, b64, n, 0, c, n)
	return c
}

// TestBF16ModeAccuracyLadder is experiment A2: the accuracy ordering
// BF16 < BF16x2 < BF16x3 ≈ FP32 that justifies using plain BF16 for the
// perturbative nonlocal correction (paper refs [34], Sec. VI.C).
func TestBF16ModeAccuracyLadder(t *testing.T) {
	m, n, k := 64, 64, 64
	rng := rand.New(rand.NewSource(3))
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	ref := refGEMM64(m, n, k, a, b)
	errFor := func(mode Mode) float64 {
		c := make([]float32, m*n)
		GEMMMixed(mode, m, n, k, a, b, c)
		return FrobRelError(c, ref)
	}
	e1 := errFor(ModeBF16)
	e2 := errFor(ModeBF16x2)
	e3 := errFor(ModeBF16x3)
	e32 := errFor(ModeFP32)
	t.Logf("max rel err: BF16=%.3g BF16x2=%.3g BF16x3=%.3g FP32=%.3g", e1, e2, e3, e32)
	if !(e1 > e2 && e2 > e3) {
		t.Errorf("accuracy ladder violated: %g, %g, %g", e1, e2, e3)
	}
	// BF16x3 should be within an order of magnitude of FP32.
	if e3 > 10*e32+1e-6 {
		t.Errorf("BF16x3 err %g far from FP32 err %g", e3, e32)
	}
	// Plain BF16 should still deliver ~2 correct digits, enough for a
	// perturbative correction.
	if e1 > 0.05 {
		t.Errorf("BF16 err %g too large", e1)
	}
}

func TestGEMMMixedFP64PathMatches(t *testing.T) {
	m, n, k := 9, 7, 11
	rng := rand.New(rand.NewSource(4))
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	c := make([]float32, m*n)
	GEMMMixed(ModeFP64, m, n, k, a, b, c)
	ref := refGEMM64(m, n, k, a, b)
	if e := FrobRelError(c, ref); e > 1e-6 {
		t.Errorf("FP64 path error %g", e)
	}
}

func TestModeMetadata(t *testing.T) {
	if ModeBF16.Components() != 1 || ModeBF16x2.Components() != 2 || ModeBF16x3.Components() != 3 {
		t.Error("component counts wrong")
	}
	if ModeFP32.Components() != 0 || ModeFP64.Components() != 0 {
		t.Error("non-BF16 modes must report 0 components")
	}
	for _, m := range []Mode{ModeFP32, ModeBF16, ModeBF16x2, ModeBF16x3, ModeFP64} {
		if m.String() == "unknown" {
			t.Errorf("mode %d has no name", m)
		}
	}
}

func BenchmarkBF16Modes(b *testing.B) {
	m, n, k := 128, 128, 128
	rng := rand.New(rand.NewSource(5))
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
	}
	for i := range bb {
		bb[i] = float32(rng.NormFloat64())
	}
	c := make([]float32, m*n)
	for _, mode := range []Mode{ModeFP32, ModeBF16, ModeBF16x2, ModeBF16x3} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GEMMMixed(mode, m, n, k, a, bb, c)
			}
		})
	}
}
