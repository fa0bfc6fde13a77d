package tddft

import (
	"math"

	"mlmd/internal/grid"
	"mlmd/internal/linalg"
)

// TotalEnergy returns Σ_s f_s ⟨ψ_s|H|ψ_s⟩ for the local Hamiltonian
// (kinetic + v_loc). occ may be nil for unit occupations.
func TotalEnergy(h *Hamiltonian, w *grid.WaveField, occ []float64) float64 {
	hw := grid.NewWaveField(h.G, w.Norb, grid.LayoutSoA)
	ws := w.ToLayout(grid.LayoutSoA)
	sums := make([]complex128, w.Norb)
	h.Apply(ws, hw, sums)
	dv := h.G.DV()
	var sum float64
	for s, rs := range sums {
		f := 1.0
		if occ != nil {
			f = occ[s]
		}
		if f == 0 {
			continue
		}
		sum += f * (real(rs) * dv)
	}
	return sum
}

// Dipole returns the electronic dipole moment −∫ r n(r) dV relative to the
// box center, the observable whose oscillation under a field kick gives the
// optical absorption spectrum.
func Dipole(g grid.Grid, rho []float64) (dx, dy, dz float64) {
	lx, ly, lz := g.LxLyLz()
	cx, cy, cz := lx/2, ly/2, lz/2
	dv := g.DV()
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				x, y, z := g.Position(ix, iy, iz)
				n := rho[g.Index(ix, iy, iz)]
				dx -= (x - cx) * n * dv
				dy -= (y - cy) * n * dv
				dz -= (z - cz) * n * dv
			}
		}
	}
	return
}

// CurrentX returns the x component of the total electronic current
// J_x = Σ_s f_s Im⟨ψ_s|∂_x|ψ_s⟩ + n A_x/c (paramagnetic + diamagnetic),
// the TDCDFT source term fed back into Maxwell's equations.
func CurrentX(h *Hamiltonian, w *grid.WaveField, occ []float64) float64 {
	g := h.G
	norb := w.Norb
	ws := w.ToLayout(grid.LayoutSoA)
	dv := g.DV()
	inv2h := 1 / (2 * g.Hx)
	var jPara float64
	nt := h.NT
	for gi := 0; gi < g.Len(); gi++ {
		xp := int(nt.XP[0][gi]) * norb
		xm := int(nt.XM[0][gi]) * norb
		base := gi * norb
		for s := 0; s < norb; s++ {
			f := 1.0
			if occ != nil {
				f = occ[s]
			}
			if f == 0 {
				continue
			}
			psi := ws.Data[base+s]
			dpsi := (ws.Data[xp+s] - ws.Data[xm+s]) * complex(inv2h, 0)
			// Im(ψ* ∂x ψ)
			jPara += f * (real(psi)*imag(dpsi) - imag(psi)*real(dpsi)) * dv
		}
	}
	// Diamagnetic term: (A/c) ∫ n dV.
	var nTot float64
	for s := 0; s < norb; s++ {
		f := 1.0
		if occ != nil {
			f = occ[s]
		}
		nTot += f
	}
	return jPara + h.Ax/lightC*nTot
}

// ExcitedPopulation returns the number of photoexcited electrons
// n_exc = ½ Σ_s |f_s(t) − f_s(0)| — since total occupation is conserved,
// every electron that leaves an initially occupied orbital shows up in an
// initially empty one, so half the total absolute occupation change counts
// excitations. This is the quantity DC-MESH reports to XS-NNQMD (Sec. V.A.8).
func ExcitedPopulation(occ0, occ []float64) float64 {
	var n float64
	for s := range occ {
		n += math.Abs(occ[s] - occ0[s])
	}
	return n / 2
}

// ProjectOccupations sets dst[s] = |⟨ψ0_s|ψ_s(t)⟩|² for each orbital, the
// survival probability used to track excitation during Ehrenfest
// propagation. dst must have length Norb; with both fields SoA it does not
// allocate.
func ProjectOccupations(dst []float64, psi0, psi *grid.WaveField) {
	norb := psi.Norb
	if len(dst) != norb || psi0.Norb != norb || psi0.G != psi.G {
		panic("tddft: ProjectOccupations shape mismatch")
	}
	dv := psi.G.DV()
	p0 := psi0.ToLayout(grid.LayoutSoA)
	pt := psi.ToLayout(grid.LayoutSoA)
	// The overlaps are taken a block of orbitals per sweep, so the
	// accumulators fit a fixed array.
	var buf [16]complex128
	for lo := 0; lo < norb; lo += len(buf) {
		ov := buf[:min(len(buf), norb-lo)]
		linalg.ZDotRows(ov, p0.Data, pt.Data, norb, lo)
		for j, o := range ov {
			re, im := real(o)*dv, imag(o)*dv
			dst[lo+j] = re*re + im*im
		}
	}
}

// NormDrift returns max_s |‖ψ_s‖² − 1|.
func NormDrift(w *grid.WaveField) float64 {
	worst := 0.0
	for s := 0; s < w.Norb; s++ {
		d := math.Abs(w.Norm2(s) - 1)
		if d > worst {
			worst = d
		}
	}
	return worst
}
