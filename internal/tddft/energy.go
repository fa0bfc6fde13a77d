package tddft

import (
	"mlmd/internal/grid"
)

// EnergyComponents is the decomposition of the Kohn–Sham total energy.
type EnergyComponents struct {
	Kinetic  float64 // Σ f_s ⟨ψ_s|−½∇²|ψ_s⟩ (with Peierls coupling)
	External float64 // ∫ ρ v_ext
	Hartree  float64 // ½ ∫ ρ v_H
	XC       float64 // LDA exchange energy
	Total    float64
}

// ComputeEnergy evaluates the full decomposition for the orbitals w with
// occupations occ (nil = unity) against the external potential vext and a
// Hartree solver. The Hamiltonian's Vloc is not consulted — the terms are
// built from their definitions, so this is also a consistency check on the
// propagator's assembled potential.
func ComputeEnergy(h *Hamiltonian, hs *HartreeSolver, w *grid.WaveField, occ, vext []float64) EnergyComponents {
	g := h.G
	n := g.Len()
	var ec EnergyComponents
	// Kinetic: apply H with zero local potential.
	saved := h.Vloc
	zero := make([]float64, n)
	h.Vloc = zero
	hw := grid.NewWaveField(g, w.Norb, grid.LayoutSoA)
	ws := w.ToLayout(grid.LayoutSoA)
	sums := make([]complex128, w.Norb)
	h.Apply(ws, hw, sums)
	dv := g.DV()
	for s, ks := range sums {
		f := 1.0
		if occ != nil {
			f = occ[s]
		}
		if f != 0 {
			ec.Kinetic += f * (real(ks) * dv)
		}
	}
	h.Vloc = saved
	// Density-dependent terms.
	rho := make([]float64, n)
	w.Density(rho, occ)
	for i := 0; i < n; i++ {
		ec.External += rho[i] * vext[i]
	}
	ec.External *= dv
	vh := make([]float64, n)
	hs.SolveFFT(rho, vh)
	for i := 0; i < n; i++ {
		ec.Hartree += 0.5 * rho[i] * vh[i]
	}
	ec.Hartree *= dv
	ec.XC = XCEnergyLDA(g, rho)
	ec.Total = ec.Kinetic + ec.External + ec.Hartree + ec.XC
	return ec
}
