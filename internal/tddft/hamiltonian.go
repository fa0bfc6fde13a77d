// Package tddft implements the real-time time-dependent density-functional
// propagation at the heart of the DC-MESH module: the local split-operator
// propagator (the paper's kin_prop kernel, in the four implementations of
// Table III), the GEMMified nonlocal correction (nlp_prop, Eq. 5), the
// Hartree solver, and the observables (density, dipole, current, energies)
// that couple electrons to Maxwell's equations and to the ions.
package tddft

import (
	"math"

	"mlmd/internal/grid"
	"mlmd/internal/linalg"
)

// Hamiltonian holds the domain-local Kohn–Sham Hamiltonian of Eq. (3):
// h = ½(p + A/c)² + v_loc(r) + v_nl. The local potential v_loc collects the
// external (ionic, local pseudopotential), Hartree, and exchange-correlation
// parts; the vector potential A enters as a Peierls phase on the hoppings;
// the nonlocal parts are applied separately by NonlocalKB / ScissorCorrection.
type Hamiltonian struct {
	G     grid.Grid
	Order grid.StencilOrder
	NT    *grid.NeighborTable
	// Vloc is the total local potential on the mesh (Hartree a.u.).
	Vloc []float64
	// A is the uniform vector potential (a.u.) sampled at the domain's
	// macroscopic position; Ax is along x.
	Ax float64

	// shells holds one validated row plan per stencil shell, built from NT.
	shells []linalg.ZStencil
}

// NewHamiltonian allocates a Hamiltonian with zero potential on g.
func NewHamiltonian(g grid.Grid, order grid.StencilOrder) *Hamiltonian {
	nt := grid.NewNeighborTable(g, order)
	shells := make([]linalg.ZStencil, len(nt.XP))
	for k := range shells {
		shells[k] = linalg.NewZStencil(nt.XP[k], nt.XM[k], nt.YP[k], nt.YM[k], nt.ZP[k], nt.ZM[k])
	}
	return &Hamiltonian{
		G:      g,
		Order:  order,
		NT:     nt,
		Vloc:   make([]float64, g.Len()),
		shells: shells,
	}
}

// KineticDiag returns the diagonal coefficient of the kinetic operator,
// Σ_axes −c0/(2h²) ≥ 0 (c0 < 0 for a Laplacian stencil).
func (h *Hamiltonian) KineticDiag() float64 {
	c0, _ := grid.LaplacianCoeffs(h.Order)
	return -0.5 * c0 * (1/(h.G.Hx*h.G.Hx) + 1/(h.G.Hy*h.G.Hy) + 1/(h.G.Hz*h.G.Hz))
}

// hopCoeff returns the hopping coefficient for neighbor offset k+1 along an
// axis with spacing hx: −c[k]/(2h²).
func hopCoeff(ck, hx float64) float64 { return -0.5 * ck / (hx * hx) }

// Apply computes dst = H ψ for every orbital of src (excluding nonlocal
// terms), used by the ground-state solver and by energy evaluation. With
// sums non-nil (len Norb) it also takes the Rayleigh sums
// sums[s] = Σ_g conj(ψ[g,s])·(Hψ)[g,s] in the same sweep. Each stencil
// shell is one row sweep of linalg.ZStencilRows over the mesh, the first
// one with the diagonal. src and dst must be distinct SoA fields on h.G
// with matching Norb.
func (h *Hamiltonian) Apply(src, dst *grid.WaveField, sums []complex128) {
	if src.G != h.G || dst.G != h.G || src.Norb != dst.Norb {
		panic("tddft: Apply shape mismatch")
	}
	if src.Layout != grid.LayoutSoA || dst.Layout != grid.LayoutSoA {
		panic("tddft: Apply requires SoA layout")
	}
	_, c := grid.LaplacianCoeffs(h.Order)
	diag := h.KineticDiag()
	for k, ck := range c {
		// Peierls phase e^{+i A h d / c-like twist} on the x hoppings; see
		// kinprop.go.
		theta := h.Ax * h.G.Hx * float64(k+1) / lightC
		phase := complex(math.Cos(theta), math.Sin(theta))
		hop := complex(hopCoeff(ck, h.G.Hx), 0)
		shell := linalg.ZStencilCoef{
			Init: k == 0, Diag: diag,
			XP: hop * phase, XM: hop * conj(phase),
			Y: hopCoeff(ck, h.G.Hy), Z: hopCoeff(ck, h.G.Hz),
		}
		var acc []complex128
		if k == len(c)-1 {
			acc = sums
		}
		linalg.ZStencilRows(dst.Data, src.Data, src.Norb, h.shells[k], h.Vloc, shell, acc)
	}
}

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

const lightC = 137.035999084
