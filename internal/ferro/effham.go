package ferro

import (
	"math"

	"mlmd/internal/md"
)

// EffectiveHamiltonian is the analytic PbTiO3 model:
//
//	E = Σ_cells [ A_eff(w_c) |s_c|² + B |s_c|⁴ ]            (soft-mode double well)
//	  − J Σ_<cc'> s_c · s_c'                                 (ferroelectric coupling)
//	  + ½ k_host Σ_atoms≠Ti |x_i − R0_i|²                    (host cage)
//	  + ½ k_perp Σ_cells |s_c,⊥axis|² (optional tetragonality)
//
// with s_c the Ti off-centering of cell c. A < 0, B > 0 give the double well
// with spontaneous |s0| = sqrt(−A/2B). Photoexcitation enters through the
// per-cell excited fraction w_c ∈ [0,1]:
//
//	A_eff = A (1 − 2 w_c)
//
// so w = 0 keeps the ferroelectric well, w = 1/2 flattens it and w > 1/2
// turns it paraelectric — the light-induced well softening that drives the
// topological switching of Fig. 3.
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
	// W holds the per-cell excitation fraction (nil = ground state).
	W []float64
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

// SetExcitation assigns the same excited fraction w to every cell.
func (eh *EffectiveHamiltonian) SetExcitation(w float64) {
	if eh.W == nil {
		eh.W = make([]float64, eh.Lat.NumCells())
	}
	for c := range eh.W {
		eh.W[c] = w
	}
}

// SetExcitationPerCell assigns per-cell excited fractions (copied).
func (eh *EffectiveHamiltonian) SetExcitationPerCell(w []float64) {
	if len(w) != eh.Lat.NumCells() {
		panic("ferro: excitation length mismatch")
	}
	eh.W = append(eh.W[:0], w...)
}

// AEff returns the effective quadratic coefficient of cell c,
// A·(1 − 2 w_c). Exported so decomposed evaluators (internal/shard) can
// reproduce the per-cell force with bitwise-identical arithmetic.
func (eh *EffectiveHamiltonian) AEff(c int) float64 {
	if eh.W == nil {
		return eh.A
	}
	return eh.A * (1 - 2*eh.W[c])
}

// aEff returns the effective quadratic coefficient of cell c.
func (eh *EffectiveHamiltonian) aEff(c int) float64 { return eh.AEff(c) }

// neighborCells returns the 6 nearest-neighbor cell ids of cell c
// (periodic).
func (eh *EffectiveHamiltonian) neighborCells(c int) [6]int {
	return eh.Lat.NeighborCells(c)
}

func wrapc(i, n int) int {
	if i < 0 {
		return i + n
	}
	if i >= n {
		return i - n
	}
	return i
}

// ComputeForces implements md.ForceField.
func (eh *EffectiveHamiltonian) ComputeForces(sys *md.System) float64 {
	l := eh.Lat
	for i := range sys.F {
		sys.F[i] = 0
	}
	var pe float64
	ncells := l.NumCells()
	// Cache soft modes.
	s := make([]float64, 3*ncells)
	for c := 0; c < ncells; c++ {
		sx, sy, sz := l.SoftMode(sys, c)
		s[3*c], s[3*c+1], s[3*c+2] = sx, sy, sz
	}
	// Double well + coupling act on Ti atoms.
	for c := 0; c < ncells; c++ {
		sx, sy, sz := s[3*c], s[3*c+1], s[3*c+2]
		s2 := sx*sx + sy*sy + sz*sz
		a := eh.aEff(c)
		pe += a*s2 + eh.B*s2*s2
		// F = −∂E/∂s = −(2a + 4B s²) s.
		coef := -(2*a + 4*eh.B*s2)
		ti := l.TiIndex[c]
		sys.F[3*ti] += coef * sx
		sys.F[3*ti+1] += coef * sy
		sys.F[3*ti+2] += coef * sz
		// Coupling: E = −J Σ_<cc'> s·s' (count each bond once via +x,+y,+z).
		nb := eh.neighborCells(c)
		for k := 0; k < 6; k += 2 { // +x, +y, +z neighbors
			c2 := nb[k]
			pe -= eh.J * (sx*s[3*c2] + sy*s[3*c2+1] + sz*s[3*c2+2])
		}
		// Force from all 6 bonds touching c: F_c = J Σ_nb s_nb.
		var gx, gy, gz float64
		for _, c2 := range nb {
			gx += s[3*c2]
			gy += s[3*c2+1]
			gz += s[3*c2+2]
		}
		sys.F[3*ti] += eh.J * gx
		sys.F[3*ti+1] += eh.J * gy
		sys.F[3*ti+2] += eh.J * gz
	}
	// Host cage on every non-Ti atom.
	for i := 0; i < sys.N; i++ {
		if sys.Type[i] == SpTi {
			continue
		}
		dx := md.MinImage1(sys.X[3*i]-l.R0[3*i], sys.Lx)
		dy := md.MinImage1(sys.X[3*i+1]-l.R0[3*i+1], sys.Ly)
		dz := md.MinImage1(sys.X[3*i+2]-l.R0[3*i+2], sys.Lz)
		pe += 0.5 * eh.KHost * (dx*dx + dy*dy + dz*dz)
		sys.F[3*i] -= eh.KHost * dx
		sys.F[3*i+1] -= eh.KHost * dy
		sys.F[3*i+2] -= eh.KHost * dz
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
