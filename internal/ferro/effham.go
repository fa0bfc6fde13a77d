package ferro

import (
	"math"

	"mlmd/internal/md"
)

// EffectiveHamiltonian is the analytic PbTiO3 model:
//
//	E = Σ_cells [ A_eff |s_c|² + B |s_c|⁴ ]                  (soft-mode double well)
//	  − J Σ_<cc'> s_c · s_c'                                 (ferroelectric coupling)
//	  + ½ k_host Σ_atoms≠Ti |x_i − R0_i|²                    (host cage)
//
// with s_c the Ti off-centering of cell c. A < 0, B > 0 give the double well
// with spontaneous |s0| = sqrt(−A/2B). Photoexcitation enters through the
// excited fraction w ∈ [0,1] of the surface:
//
//	A_eff = A (1 − 2 w)
//
// so w = 0 keeps the ferroelectric well, w = 1/2 flattens it and w > 1/2
// turns it paraelectric — the light-induced well softening that drives the
// topological switching of Fig. 3. Spatially varying excitation is the
// per-atom blend (internal/xsnn) of a w = 0 and a w = 1 surface.
//
// Because the host term ties atoms to lattice sites, this force field is an
// Einstein-crystal-like model: it is translation-pinned by construction and
// does not conserve total momentum (the lattice frame absorbs it).
type EffectiveHamiltonian struct {
	Lat *Lattice
	// Double-well parameters (Hartree / Bohr² and Hartree / Bohr⁴).
	A, B float64
	// J is the nearest-neighbor soft-mode coupling (Hartree / Bohr²).
	J float64
	// KHost is the harmonic constant tying Pb/O atoms to their sites.
	KHost float64
	// W is the excited fraction of every cell (0 = ground state).
	W float64
}

// DefaultEffHam returns parameters giving a ~0.03 Bohr spontaneous
// off-centering and a well depth of a few mHa per cell — soft enough for
// room-temperature dynamics at MD time steps of tens of a.u.
func DefaultEffHam(lat *Lattice) *EffectiveHamiltonian {
	return &EffectiveHamiltonian{
		Lat:   lat,
		A:     -0.02, // Ha/Bohr²
		B:     5.0,   // Ha/Bohr⁴  ⇒ s0 = sqrt(0.02/10) ≈ 0.045 Bohr
		J:     0.004, // Ha/Bohr²
		KHost: 0.05,  // Ha/Bohr²
	}
}

// S0 returns the spontaneous soft-mode amplitude sqrt(−A/2B) (0 when the
// well is paraelectric).
func (eh *EffectiveHamiltonian) S0() float64 {
	if eh.A >= 0 {
		return 0
	}
	return math.Sqrt(-eh.A / (2 * eh.B))
}

// SetExcitation sets the excited fraction w of every cell.
func (eh *EffectiveHamiltonian) SetExcitation(w float64) { eh.W = w }

func wrapc(i, n int) int {
	if i < 0 {
		return i + n
	}
	if i >= n {
		return i - n
	}
	return i
}

// TiForce is the law on one Ti: the force on the Ti of a cell with soft
// mode s whose six neighbor cells, in NeighborCells order, have soft modes
// ns, and the cell's energy — its well plus the +x, +y, +z half of its
// bonds, so that every bond counts once in the sum over cells. Serial and
// decomposed evaluators both call it, so their forces agree bitwise.
func (eh *EffectiveHamiltonian) TiForce(sx, sy, sz float64, ns *[6][3]float64) (fx, fy, fz, pe float64) {
	a := eh.A * (1 - 2*eh.W)
	s2 := sx*sx + sy*sy + sz*sz
	pe = a*s2 + eh.B*s2*s2
	for k := 0; k < 6; k += 2 { // +x, +y, +z neighbors
		pe -= eh.J * (sx*ns[k][0] + sy*ns[k][1] + sz*ns[k][2])
	}
	// F = −∂E/∂s = −(2a + 4B s²) s, plus J Σ_nb s_nb from all six bonds.
	coef := -(2*a + 4*eh.B*s2)
	var gx, gy, gz float64
	for k := range ns {
		gx += ns[k][0]
		gy += ns[k][1]
		gz += ns[k][2]
	}
	return coef*sx + eh.J*gx, coef*sy + eh.J*gy, coef*sz + eh.J*gz, pe
}

// CageForce is the law on one Pb or O atom displaced d from its site: the
// host cage's force and energy.
func (eh *EffectiveHamiltonian) CageForce(dx, dy, dz float64) (fx, fy, fz, pe float64) {
	return -(eh.KHost * dx), -(eh.KHost * dy), -(eh.KHost * dz), 0.5 * eh.KHost * (dx*dx + dy*dy + dz*dz)
}

// ComputeForces implements md.ForceField.
func (eh *EffectiveHamiltonian) ComputeForces(sys *md.System) float64 {
	l := eh.Lat
	s := make([][3]float64, l.NumCells())
	for c := range s {
		s[c][0], s[c][1], s[c][2] = l.SoftMode(sys, c)
	}
	var pe float64
	for c := range s {
		var ns [6][3]float64
		for k, c2 := range l.NeighborCells(c) {
			ns[k] = s[c2]
		}
		ti := l.TiIndex[c]
		fx, fy, fz, e := eh.TiForce(s[c][0], s[c][1], s[c][2], &ns)
		sys.F[3*ti], sys.F[3*ti+1], sys.F[3*ti+2] = fx, fy, fz
		pe += e
	}
	for i := 0; i < sys.N; i++ {
		if sys.Type[i] == SpTi {
			continue
		}
		fx, fy, fz, e := eh.CageForce(
			md.MinImage1(sys.X[3*i]-l.R0[3*i], sys.Lx),
			md.MinImage1(sys.X[3*i+1]-l.R0[3*i+1], sys.Ly),
			md.MinImage1(sys.X[3*i+2]-l.R0[3*i+2], sys.Lz))
		sys.F[3*i], sys.F[3*i+1], sys.F[3*i+2] = fx, fy, fz
		pe += e
	}
	return pe
}

// WellDepth returns the ground-state double-well depth per cell,
// E(0) − E(s0) = A²/4B (positive; zero when paraelectric).
func (eh *EffectiveHamiltonian) WellDepth() float64 {
	if eh.A >= 0 {
		return 0
	}
	return eh.A * eh.A / (4 * eh.B)
}
