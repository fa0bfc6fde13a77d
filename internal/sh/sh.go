// Package sh implements fewest-switches surface hopping (FSSH, Tully) — the
// U_SH factor of the paper's Eq. (2) that updates electronic occupations
// f_s^(α) perturbatively from the nonadiabatic coupling generated by slow
// atomic motion, extending Ehrenfest dynamics to the longer time scales
// where stochastic state-to-state transitions dominate (Sec. III, V.A.4).
//
// The quantum uncertainty principle separates the Ehrenfest and SH time
// scales at t ~ ħ/ΔE; the hopping rates here act once per MD step (Δt_MD),
// i.e. after every N_QD ≈ 100 attosecond-scale QD steps.
package sh

import (
	"fmt"
	"math"
	"math/rand"
)

// State holds the surface-hopping state of one domain: adiabatic energies
// and occupations of the Norb local Kohn–Sham levels.
type State struct {
	// E holds adiabatic orbital energies (Hartree, ascending preferred but
	// not required).
	E []float64
	// F holds occupations in [0,1] per orbital (spin-degenerate
	// occupations are handled by the caller's convention).
	F []float64
	// Temperature (kelvin-equivalent thermal energy in Hartree) for the
	// detailed-balance factor on upward hops.
	KT  float64
	rng *rand.Rand
}

// NewState builds a surface-hopping state with the given energies and
// initial occupations (copied). kT is the thermal energy in Hartree.
func NewState(e, f []float64, kT float64, seed int64) (*State, error) {
	if len(e) != len(f) {
		return nil, fmt.Errorf("sh: energy/occupation length mismatch %d vs %d", len(e), len(f))
	}
	for i, v := range f {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("sh: occupation %d = %g outside [0,1]", i, v)
		}
	}
	s := &State{
		E:   append([]float64(nil), e...),
		F:   append([]float64(nil), f...),
		KT:  kT,
		rng: rand.New(rand.NewSource(seed)),
	}
	return s, nil
}

// TotalOccupation returns Σ_s f_s.
func (s *State) TotalOccupation() float64 {
	var sum float64
	for _, f := range s.F {
		sum += f
	}
	return sum
}

// Coupling is the nonadiabatic coupling d_ab = ⟨ψ_a|∂/∂t ψ_b⟩ between a pair
// of levels, estimated by the caller from wave-function overlaps between MD
// steps (d_ab ≈ ⟨ψ_a(t)|ψ_b(t+Δt)⟩/Δt for a ≠ b).
type Coupling struct {
	A, B int
	D    float64 // magnitude of the coupling (1/a.u. time)
}

// Step performs one FSSH occupation update over Δt (a.u.) given the pair
// couplings. For each coupled pair the transition probability follows the
// fewest-switches rate g = 2|d_ab|²Δt² bounded to [0,1] — a perturbative
// golden-rule-like form adequate for the weak-coupling regime — with an
// upward-hop detailed-balance factor exp(−ΔE/kT). Population moves
// stochastically in quanta of the available occupation. Total occupation is
// conserved exactly.
func (s *State) Step(couplings []Coupling, dt float64) {
	for _, c := range couplings {
		if c.A == c.B || c.A < 0 || c.B < 0 || c.A >= len(s.F) || c.B >= len(s.F) {
			continue
		}
		lo, hi := c.A, c.B
		if s.E[lo] > s.E[hi] {
			lo, hi = hi, lo
		}
		p := 2 * c.D * c.D * dt * dt
		if p > 1 {
			p = 1
		}
		// Downward direction hi→lo always allowed; upward lo→hi carries the
		// Boltzmann factor.
		pUp := p
		if s.KT > 0 {
			pUp = p * math.Exp(-(s.E[hi]-s.E[lo])/s.KT)
		} else {
			pUp = 0
		}
		// Transfer amounts limited by available population and space.
		down := p * s.F[hi] * (1 - s.F[lo])
		up := pUp * s.F[lo] * (1 - s.F[hi])
		if s.rng.Float64() < 0.5 { // randomize update order to avoid bias
			s.transfer(hi, lo, down)
			s.transfer(lo, hi, up)
		} else {
			s.transfer(lo, hi, up)
			s.transfer(hi, lo, down)
		}
	}
}

func (s *State) transfer(from, to int, amount float64) {
	if amount <= 0 {
		return
	}
	if amount > s.F[from] {
		amount = s.F[from]
	}
	if amount > 1-s.F[to] {
		amount = 1 - s.F[to]
	}
	s.F[from] -= amount
	s.F[to] += amount
}

// FermiDirac returns the FD occupation at energy e, chemical potential mu,
// thermal energy kT (Hartree).
func FermiDirac(e, mu, kT float64) float64 {
	if kT <= 0 {
		if e < mu {
			return 1
		}
		if e == mu {
			return 0.5
		}
		return 0
	}
	x := (e - mu) / kT
	if x > 40 {
		return 0
	}
	if x < -40 {
		return 1
	}
	return 1 / (1 + math.Exp(x))
}

// CouplingsFromOverlaps converts the orbital overlap matrix between
// successive MD steps, O[a][b] = ⟨ψ_a(t)|ψ_b(t+Δt)⟩, into pair couplings
// d_ab = |O_ab|/Δt for a < b, dropping entries below threshold. Only the
// strict upper triangle of o is read. The couplings are appended to dst,
// so a caller that passes its previous result[:0] does not allocate in
// steady state.
func CouplingsFromOverlaps(dst []Coupling, o []complex128, n int, dt, threshold float64) []Coupling {
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			mag := cAbs(o[a*n+b]) / dt
			if mag >= threshold {
				dst = append(dst, Coupling{A: a, B: b, D: mag})
			}
		}
	}
	return dst
}

func cAbs(z complex128) float64 {
	return math.Hypot(real(z), imag(z))
}
