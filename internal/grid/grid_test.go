package grid

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestIndexRoundTrip(t *testing.T) {
	g := New(4, 5, 6, 1, 1, 1)
	for idx := 0; idx < g.Len(); idx++ {
		ix, iy, iz := g.Coords(idx)
		if got := g.Index(ix, iy, iz); got != idx {
			t.Fatalf("Index(Coords(%d)) = %d", idx, got)
		}
	}
}

func TestIndexRoundTripProperty(t *testing.T) {
	g := New(7, 3, 9, 0.5, 0.5, 0.5)
	f := func(i uint16) bool {
		idx := int(i) % g.Len()
		ix, iy, iz := g.Coords(idx)
		return g.Index(ix, iy, iz) == idx &&
			ix >= 0 && ix < g.Nx && iy >= 0 && iy < g.Ny && iz >= 0 && iz < g.Nz
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrap(t *testing.T) {
	cases := []struct{ i, n, want int }{
		{0, 5, 0}, {4, 5, 4}, {5, 5, 0}, {6, 5, 1}, {-1, 5, 4}, {-5, 5, 0}, {-6, 5, 4}, {12, 5, 2},
	}
	for _, c := range cases {
		if got := Wrap(c.i, c.n); got != c.want {
			t.Errorf("Wrap(%d,%d) = %d, want %d", c.i, c.n, got, c.want)
		}
	}
}

func TestWrapProperty(t *testing.T) {
	f := func(i int16, n uint8) bool {
		nn := int(n)%31 + 2
		w := Wrap(int(i), nn)
		return w >= 0 && w < nn && (w-int(i))%nn == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVolume(t *testing.T) {
	g := New(4, 4, 4, 0.5, 0.5, 0.5)
	if dv := g.DV(); math.Abs(dv-0.125) > 1e-12 {
		t.Errorf("DV = %g, want 0.125", dv)
	}
}

func TestMinImage(t *testing.T) {
	l := 10.0
	cases := []struct{ in, want float64 }{
		{0, 0}, {4, 4}, {6, -4}, {-6, 4}, {11, 1}, {-11, -1},
	}
	for _, c := range cases {
		if got := MinImage(c.in, l); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinImage(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(1, 4, 4, 1, 1, 1) },
		func() { New(4, 4, 4, 0, 1, 1) },
		func() { New(4, 4, 4, 1, -1, 1) },
		func() { NewWaveField(NewCubic(4, 1), 0, LayoutSoA) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func fillRandomField(w *WaveField, seed int64) {
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func() float64 {
		s = s*2862933555777941757 + 3037000493
		return float64(s>>11) / float64(1<<53)
	}
	for i := range w.Data {
		w.Data[i] = complex(next()-0.5, next()-0.5)
	}
}

func TestLayoutConversionRoundTrip(t *testing.T) {
	g := New(3, 4, 5, 0.7, 0.7, 0.7)
	w := NewWaveField(g, 6, LayoutAoS)
	fillRandomField(w, 1)
	soa := w.ToLayout(LayoutSoA)
	back := soa.ToLayout(LayoutAoS)
	for gi := 0; gi < g.Len(); gi++ {
		for s := 0; s < w.Norb; s++ {
			if w.At(gi, s) != back.At(gi, s) || w.At(gi, s) != soa.At(gi, s) {
				t.Fatalf("layout round trip mismatch at g=%d s=%d", gi, s)
			}
		}
	}
}

func TestNormalizeAndOverlap(t *testing.T) {
	g := NewCubic(6, 0.8)
	w := NewWaveField(g, 3, LayoutSoA)
	fillRandomField(w, 7)
	w.Normalize()
	for s := 0; s < w.Norb; s++ {
		if n := w.Norm2(s); math.Abs(n-1) > 1e-12 {
			t.Errorf("orbital %d norm² = %g after Normalize", s, n)
		}
	}
	// Overlap of an orbital with itself equals its norm².
	ov := w.Overlap(1, 1)
	if math.Abs(real(ov)-1) > 1e-12 || math.Abs(imag(ov)) > 1e-12 {
		t.Errorf("self overlap = %v, want 1", ov)
	}
	// Hermitian symmetry ⟨a|b⟩ = ⟨b|a⟩*.
	if d := cmplx.Abs(w.Overlap(0, 2) - cmplx.Conj(w.Overlap(2, 0))); d > 1e-12 {
		t.Errorf("overlap not Hermitian, |diff| = %g", d)
	}
}

func TestGramSchmidt(t *testing.T) {
	g := NewCubic(6, 0.8)
	w := NewWaveField(g, 4, LayoutSoA)
	fillRandomField(w, 3)
	w.GramSchmidt()
	for a := 0; a < w.Norb; a++ {
		for b := 0; b < w.Norb; b++ {
			want := complex(0, 0)
			if a == b {
				want = 1
			}
			if d := cmplx.Abs(w.Overlap(a, b) - want); d > 1e-10 {
				t.Errorf("⟨%d|%d⟩ off by %g", a, b, d)
			}
		}
	}
}

// gramSchmidtAtSet is the element-accessor form GramSchmidt replaced: the
// same modified Gram-Schmidt through At/Set, every sum in ascending mesh
// order.
func gramSchmidtAtSet(w *WaveField) {
	n := w.G.Len()
	dv := complex(w.G.DV(), 0)
	for s := 0; s < w.Norb; s++ {
		for r := 0; r < s; r++ {
			var ov complex128
			for g := 0; g < n; g++ {
				ov += cmplx.Conj(w.At(g, r)) * w.At(g, s)
			}
			ov *= dv
			for g := 0; g < n; g++ {
				w.Set(g, s, w.At(g, s)-ov*w.At(g, r))
			}
		}
		var sum float64
		for g := 0; g < n; g++ {
			v := w.At(g, s)
			sum += real(v)*real(v) + imag(v)*imag(v)
		}
		if n2 := sum * w.G.DV(); n2 > 0 {
			scale := complex(1/math.Sqrt(n2), 0)
			for g := 0; g < n; g++ {
				w.Set(g, s, w.At(g, s)*scale)
			}
		}
	}
}

// TestGramSchmidtStridedMatchesAccessors: indexing Data directly with
// hoisted strides keeps the summation order, so the bits are those of the
// At/Set walk in both layouts.
func TestGramSchmidtStridedMatchesAccessors(t *testing.T) {
	g := New(4, 6, 5, 0.8, 0.7, 0.9)
	for _, layout := range []Layout{LayoutSoA, LayoutAoS} {
		w := NewWaveField(g, 5, layout)
		fillRandomField(w, 11)
		want := w.Clone()
		w.GramSchmidt()
		gramSchmidtAtSet(want)
		for i := range want.Data {
			if math.Float64bits(real(w.Data[i])) != math.Float64bits(real(want.Data[i])) ||
				math.Float64bits(imag(w.Data[i])) != math.Float64bits(imag(want.Data[i])) {
				t.Fatalf("%v: Data[%d] = %v, accessor walk gives %v", layout, i, w.Data[i], want.Data[i])
			}
		}
	}
}

func TestDensityIntegratesToElectronCount(t *testing.T) {
	g := NewCubic(6, 0.8)
	w := NewWaveField(g, 3, LayoutSoA)
	fillRandomField(w, 5)
	w.Normalize()
	occ := []float64{1, 0.5, 0}
	rho := make([]float64, g.Len())
	w.Density(rho, occ)
	sum := 0.0
	for _, v := range rho {
		sum += v
	}
	sum *= g.DV()
	if math.Abs(sum-1.5) > 1e-10 {
		t.Errorf("∫n dV = %g, want 1.5", sum)
	}
	for _, v := range rho {
		if v < 0 {
			t.Fatal("density must be non-negative")
		}
	}
}

func TestLaplacianOfPlaneWave(t *testing.T) {
	// ∇² cos(kx) = -k² cos(kx); the order-4 stencil should get close for a
	// resolved wave.
	n := 32
	g := New(n, 4, 4, 0.5, 0.5, 0.5)
	lx, _, _ := g.LxLyLz()
	k := 2 * math.Pi / lx
	src := make([]float64, g.Len())
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				x, _, _ := g.Position(ix, iy, iz)
				src[g.Index(ix, iy, iz)] = math.Cos(k * x)
			}
		}
	}
	dst := make([]float64, g.Len())
	Laplacian(g, Order4, src, dst)
	for i, v := range dst {
		want := -k * k * src[i]
		if math.Abs(v-want) > 2e-4 {
			t.Fatalf("Laplacian[%d] = %g, want %g", i, v, want)
		}
	}
}

func TestLaplacianOfConstantIsZero(t *testing.T) {
	g := NewCubic(8, 0.6)
	src := make([]float64, g.Len())
	for i := range src {
		src[i] = 3.25
	}
	dst := make([]float64, g.Len())
	for _, order := range []StencilOrder{Order2, Order4} {
		Laplacian(g, order, src, dst)
		for i, v := range dst {
			if math.Abs(v) > 1e-10 {
				t.Fatalf("order %d: Laplacian of constant = %g at %d", order, v, i)
			}
		}
	}
}

func TestNeighborTableConsistency(t *testing.T) {
	g := New(4, 3, 5, 1, 1, 1)
	nt := NewNeighborTable(g, Order4)
	for idx := 0; idx < g.Len(); idx++ {
		ix, iy, iz := g.Coords(idx)
		for k := 0; k < 2; k++ {
			d := k + 1
			if int(nt.XP[k][idx]) != g.Index(Wrap(ix+d, g.Nx), iy, iz) {
				t.Fatalf("XP wrong at %d k=%d", idx, k)
			}
			if int(nt.YM[k][idx]) != g.Index(ix, Wrap(iy-d, g.Ny), iz) {
				t.Fatalf("YM wrong at %d k=%d", idx, k)
			}
			if int(nt.ZP[k][idx]) != g.Index(ix, iy, Wrap(iz+d, g.Nz)) {
				t.Fatalf("ZP wrong at %d k=%d", idx, k)
			}
		}
	}
	// +1 then -1 along the same axis must return to the start.
	for idx := 0; idx < g.Len(); idx++ {
		if int(nt.XM[0][nt.XP[0][idx]]) != idx {
			t.Fatalf("XP/XM not inverse at %d", idx)
		}
	}
}
