package tddft

import (
	"math"
	"math/rand"

	"mlmd/internal/grid"
	"mlmd/internal/linalg"
)

// GroundState relaxes norb orbitals to the lowest eigenstates of h by
// preconditioned steepest descent in imaginary time with Gram–Schmidt
// re-orthonormalization — the domain-local part of the global–local SCF
// iteration that prepares Ψ(0) before real-time propagation.
//
// It returns the field (SoA) and the final per-orbital Rayleigh quotients
// (orbital energies, ascending).
func GroundState(h *Hamiltonian, norb, iters int, seed int64) (*grid.WaveField, []float64) {
	g := h.G
	w := grid.NewWaveField(g, norb, grid.LayoutSoA)
	rng := rand.New(rand.NewSource(seed))
	for i := range w.Data {
		w.Data[i] = complex(rng.NormFloat64(), 0)
	}
	w.GramSchmidt()
	hw := grid.NewWaveField(g, norb, grid.LayoutSoA)
	// Step size bounded by the kinetic spectral radius.
	lmax := 2*h.KineticDiag() + maxAbs(h.Vloc)
	dtau := 0.8 / lmax
	dv := g.DV()
	sums := make([]complex128, norb)
	e := make([]complex128, norb)
	// One iteration is three kinds of row sweep over the mesh: H ψ with the
	// Rayleigh sums, the residual step with orbital 0's norm, and the
	// right-looking Gram–Schmidt passes.
	for it := 0; it < iters; it++ {
		h.Apply(w, hw, sums)
		for s, sum := range sums {
			e[s] = complex(real(sum)*dv, 0) // ⟨ψ_s|H|ψ_s⟩ for ‖ψ_s‖ = 1
		}
		// ψ ← ψ − Δτ (H ψ − ⟨ψ|H|ψ⟩ ψ) : residual descent keeps norms near 1.
		n0 := linalg.ZResidRows(w.Data, hw.Data, norb, e, dtau)
		w.GramSchmidtNorm0(n0 * dv)
	}
	h.Apply(w, hw, sums)
	energies := make([]float64, norb)
	for s, sum := range sums {
		energies[s] = real(sum) * dv
	}
	// Sort orbitals by energy (insertion sort over columns).
	for i := 1; i < norb; i++ {
		for j := i; j > 0 && energies[j] < energies[j-1]; j-- {
			energies[j], energies[j-1] = energies[j-1], energies[j]
			swapOrbitals(w, j, j-1)
		}
	}
	return w, energies
}

func swapOrbitals(w *grid.WaveField, a, b int) {
	norb := w.Norb
	for gi := 0; gi < w.G.Len(); gi++ {
		base := gi * norb
		w.Data[base+a], w.Data[base+b] = w.Data[base+b], w.Data[base+a]
	}
}

func maxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// HarmonicPotential fills v with ½ k |r−r0|² (r0 = box center), the standard
// analytic benchmark for the propagator and ground-state solver.
func HarmonicPotential(g grid.Grid, k float64, v []float64) {
	lx, ly, lz := g.LxLyLz()
	cx, cy, cz := lx/2, ly/2, lz/2
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				x, y, z := g.Position(ix, iy, iz)
				dx, dy, dz := x-cx, y-cy, z-cz
				v[g.Index(ix, iy, iz)] = 0.5 * k * (dx*dx + dy*dy + dz*dz)
			}
		}
	}
}

// GaussianOrbital writes exp(−|r−r0|²/2σ²) (unnormalized) into orbital s of
// w, centered at the box center.
func GaussianOrbital(w *grid.WaveField, s int, sigma float64) {
	g := w.G
	lx, ly, lz := g.LxLyLz()
	cx, cy, cz := lx/2, ly/2, lz/2
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				x, y, z := g.Position(ix, iy, iz)
				dx, dy, dz := x-cx, y-cy, z-cz
				r2 := dx*dx + dy*dy + dz*dz
				w.Set(g.Index(ix, iy, iz), s, complex(math.Exp(-r2/(2*sigma*sigma)), 0))
			}
		}
	}
}
