package grid

import (
	"fmt"
	"math"
	"math/cmplx"

	"mlmd/internal/linalg"
)

// WaveField stores Norb complex Kohn–Sham orbitals on a Grid.
//
// Two layouts are supported, mirroring the paper's Sec. V.B.2 optimization:
//
//   - LayoutAoS ("array of structures"): orbital-major — all grid points of
//     orbital 0, then orbital 1, ... Index = s*Ngrid + g. This is the
//     baseline layout.
//   - LayoutSoA ("structure of arrays"): orbital-fastest — the Norb complex
//     values for grid point 0, then point 1, ... Index = g*Norb + s. Stencil
//     coefficients are then reused across all orbitals of a point, which is
//     what makes the re-ordered kin_prop kernel fast.
type WaveField struct {
	G      Grid
	Norb   int
	Layout Layout
	Data   []complex128
}

// Layout selects the memory layout of a WaveField.
type Layout int

const (
	// LayoutAoS is orbital-major storage (baseline).
	LayoutAoS Layout = iota
	// LayoutSoA is orbital-fastest storage (optimized).
	LayoutSoA
)

func (l Layout) String() string {
	if l == LayoutAoS {
		return "AoS"
	}
	return "SoA"
}

// NewWaveField allocates a zeroed WaveField.
func NewWaveField(g Grid, norb int, layout Layout) *WaveField {
	if norb < 1 {
		panic(fmt.Sprintf("grid: Norb must be >= 1, got %d", norb))
	}
	return &WaveField{
		G:      g,
		Norb:   norb,
		Layout: layout,
		Data:   make([]complex128, g.Len()*norb),
	}
}

// At returns the amplitude of orbital s at mesh point g.
func (w *WaveField) At(gIdx, s int) complex128 {
	if w.Layout == LayoutSoA {
		return w.Data[gIdx*w.Norb+s]
	}
	return w.Data[s*w.G.Len()+gIdx]
}

// Set stores the amplitude of orbital s at mesh point g.
func (w *WaveField) Set(gIdx, s int, v complex128) {
	if w.Layout == LayoutSoA {
		w.Data[gIdx*w.Norb+s] = v
	} else {
		w.Data[s*w.G.Len()+gIdx] = v
	}
}

// strides returns the Data strides of the orbital and mesh-point indices:
// orbital s at point g is Data[s*orb+g*pt] in either layout. Loops over the
// whole mesh hoist them instead of branching on the layout per element.
func (w *WaveField) strides() (orb, pt int) {
	if w.Layout == LayoutSoA {
		return 1, w.Norb
	}
	return w.G.Len(), 1
}

// Clone returns a deep copy of the field.
func (w *WaveField) Clone() *WaveField {
	c := &WaveField{G: w.G, Norb: w.Norb, Layout: w.Layout, Data: make([]complex128, len(w.Data))}
	copy(c.Data, w.Data)
	return c
}

// CopyFrom copies src into w, converting layout if necessary.
// The grids and orbital counts must match.
func (w *WaveField) CopyFrom(src *WaveField) {
	if w.G != src.G || w.Norb != src.Norb {
		panic("grid: CopyFrom shape mismatch")
	}
	if w.Layout == src.Layout {
		copy(w.Data, src.Data)
		return
	}
	n := w.G.Len()
	for g := 0; g < n; g++ {
		for s := 0; s < w.Norb; s++ {
			w.Set(g, s, src.At(g, s))
		}
	}
}

// ToLayout returns the field in the requested layout, copying if needed.
func (w *WaveField) ToLayout(l Layout) *WaveField {
	if w.Layout == l {
		return w
	}
	out := NewWaveField(w.G, w.Norb, l)
	out.CopyFrom(w)
	return out
}

// Norm2 returns the squared L2 norm ∫|ψ_s|² dV of orbital s.
func (w *WaveField) Norm2(s int) float64 {
	dv := w.G.DV()
	sum := 0.0
	n := w.G.Len()
	so, sg := w.strides()
	for g, i := 0, s*so; g < n; g, i = g+1, i+sg {
		v := w.Data[i]
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return sum * dv
}

// Normalize scales every orbital to unit L2 norm. Orbitals with zero norm
// are left untouched.
func (w *WaveField) Normalize() {
	for s := 0; s < w.Norb; s++ {
		n2 := w.Norm2(s)
		if n2 <= 0 {
			continue
		}
		scale := complex(1/math.Sqrt(n2), 0)
		n := w.G.Len()
		for g := 0; g < n; g++ {
			w.Set(g, s, w.At(g, s)*scale)
		}
	}
}

// Overlap returns ⟨ψ_a|ψ_b⟩ = ∫ ψ_a* ψ_b dV.
func (w *WaveField) Overlap(a, b int) complex128 {
	dv := complex(w.G.DV(), 0)
	var sum complex128
	n := w.G.Len()
	for g := 0; g < n; g++ {
		sum += cmplx.Conj(w.At(g, a)) * w.At(g, b)
	}
	return sum * dv
}

// Density accumulates the electron density n(r) = Σ_s f_s |ψ_s(r)|² into
// dst (which must have length G.Len()). occ supplies the occupation of each
// orbital; pass nil for fully occupied (f=1).
func (w *WaveField) Density(dst []float64, occ []float64) {
	if len(dst) != w.G.Len() {
		panic("grid: Density dst length mismatch")
	}
	for g := range dst {
		dst[g] = 0
	}
	n := w.G.Len()
	for s := 0; s < w.Norb; s++ {
		f := 1.0
		if occ != nil {
			f = occ[s]
		}
		if f == 0 {
			continue
		}
		for g := 0; g < n; g++ {
			v := w.At(g, s)
			dst[g] += f * (real(v)*real(v) + imag(v)*imag(v))
		}
	}
}

// GramSchmidt orthonormalizes the orbitals in place (modified Gram-Schmidt).
// Every sum runs over the mesh in ascending point order. An AoS field is
// orthonormalized through an SoA copy, which takes the same per-orbital
// chains.
func (w *WaveField) GramSchmidt() {
	if w.Layout != LayoutSoA {
		soa := w.ToLayout(LayoutSoA)
		soa.GramSchmidt()
		w.CopyFrom(soa)
		return
	}
	w.GramSchmidtNorm0(w.Norm2(0))
}

// GramSchmidtNorm0 is GramSchmidt of an SoA field whose orbital 0 has the
// squared norm n0 = w.Norm2(0), taken by the caller in a sweep it had to
// make anyway. The orthonormalization is right-looking: once orbital r is
// final it is normalized and projected out of every later orbital, in two
// row sweeps — scale r and take its overlaps with s > r, then subtract them
// and take the squared norm of r+1. Each orbital sees the same operations
// in the same order as the left-looking loop (project out r = 0, 1, … s−1,
// then normalize), so the bits are that loop's.
func (w *WaveField) GramSchmidtNorm0(n0 float64) {
	if w.Layout != LayoutSoA {
		panic("grid: GramSchmidtNorm0 requires SoA layout")
	}
	norb := w.Norb
	dv := w.G.DV()
	dvc := complex(dv, 0)
	var buf [16]complex128
	ovAll := buf[:]
	if norb > len(buf) {
		ovAll = make([]complex128, norb)
	}
	for r := 0; r < norb; r++ {
		ov := ovAll[:norb-r-1]
		if n0 > 0 {
			linalg.ZScaleDotCol(ov, w.Data, norb, r, 1/math.Sqrt(n0), r+1)
		} else {
			linalg.ZDotCol(ov, w.Data, r, w.Data, norb, r+1)
		}
		for j := range ov {
			ov[j] *= dvc
		}
		n0 = linalg.ZAxpyCol(w.Data, norb, r, ov, r+1) * dv
	}
}
