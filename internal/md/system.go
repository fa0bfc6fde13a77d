// Package md is the classical molecular-dynamics engine underlying the
// XS-NNQMD module: periodic simulation cells, the cell-sorted full neighbor
// list and Lennard-Jones row kernel the sharded engine also runs,
// velocity-Verlet integration, and thermostats. Forces come from a
// ForceField interface so the same engine drives the analytic ferroelectric
// model, the Allegro-style neural network, and the blended XS/GS force of
// Eq. (4).
package md

import (
	"fmt"
	"math"
	"math/rand"
)

// System is a periodic collection of atoms. Positions and velocities are
// stored flat: X[3i], X[3i+1], X[3i+2] for atom i (Bohr; a.u. velocities).
type System struct {
	N          int
	Lx, Ly, Lz float64
	X, V, F    []float64
	// Mass per atom (a.u.); Type is a small integer species index.
	Mass []float64
	Type []int
}

// NewSystem allocates a system of n atoms in an Lx×Ly×Lz periodic box.
func NewSystem(n int, lx, ly, lz float64) (*System, error) {
	if n < 1 {
		return nil, fmt.Errorf("md: need at least 1 atom, got %d", n)
	}
	if lx <= 0 || ly <= 0 || lz <= 0 {
		return nil, fmt.Errorf("md: box lengths must be positive")
	}
	return &System{
		N: n, Lx: lx, Ly: ly, Lz: lz,
		X:    make([]float64, 3*n),
		V:    make([]float64, 3*n),
		F:    make([]float64, 3*n),
		Mass: make([]float64, n),
		Type: make([]int, n),
	}, nil
}

// Wrap folds all positions into the primary cell.
func (s *System) Wrap() {
	for i := 0; i < s.N; i++ {
		s.X[3*i] = wrap1(s.X[3*i], s.Lx)
		s.X[3*i+1] = wrap1(s.X[3*i+1], s.Ly)
		s.X[3*i+2] = wrap1(s.X[3*i+2], s.Lz)
	}
}

// wrap1 returns the bits of wrapFormula. An atom that stepped at most one
// box length out of [0, l) takes one of three shortcuts, each exact: math.Mod
// returns x itself for |x| < l (so x < 0 gets the formula's x + l), and x − l
// for l ≤ x < 2l, where the subtraction is exact (Sterbenz). NaN, ±Inf and
// every other x fail the compares and take the formula.
func wrap1(x, l float64) float64 {
	switch {
	case x >= 0 && x < l:
		return x
	case x < 0 && x > -l:
		return x + l
	case x >= l && x < 2*l:
		return x - l
	}
	return wrapFormula(x, l)
}

// wrapFormula is the reference definition of the periodic wrap.
func wrapFormula(x, l float64) float64 {
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

// Wrap1 folds coordinate x into [0, l): the scalar form of Wrap, exported
// for decomposed engines (internal/shard) that must reproduce the wrapping
// arithmetic bitwise.
func Wrap1(x, l float64) float64 { return wrap1(x, l) }

// Period is one periodic box length with the bounds of the min-image fast
// paths precomputed, so a pair loop pays the multiplies once per axis instead
// of once per pair. Build one with NewPeriod from a positive finite box
// length.
type Period struct {
	// near is fl(0.49·l); (wrapLo, wrapHi) is (fl(0.51·l), fl(1.49·l)). The
	// LJ terms kernel reads all four fields (ljKernel).
	l, near, wrapLo, wrapHi float64
}

// NewPeriod returns the Period of box length l.
func NewPeriod(l float64) Period {
	return Period{l: l, near: 0.49 * l, wrapLo: 0.51 * l, wrapHi: 1.49 * l}
}

// MinImage returns the minimum-image reduction of displacement d:
// d − l·Round(d/l), bit for bit. Where |d| < fl(0.49·l) the quotient d/l
// rounds below one half, Round yields ±0 and the formula returns d itself
// (−0 becomes +0, which d+0 reproduces); that compare is inlined into the
// caller's pair loop and everything else goes to minImageWrap. The split is
// what keeps this function under the inliner's budget.
func (p Period) MinImage(d float64) float64 {
	if d < p.near && -d < p.near { // |d| < near, in the form that costs the inliner least
		return d + 0
	}
	return minImageWrap(d, p)
}

// minImageWrap is the out-of-line part of Period.MinImage. Where
// fl(0.51·l) < |d| < fl(1.49·l) — every wrapped pair of atoms that both sit
// inside the box — the quotient lies strictly between 0.5 and 1.5, Round is
// ±1, l·(±1) is exact and the formula reduces to d ∓ l without the divide.
// The margins around 0.5 and 1.5 absorb the rounding of the bounds (for
// subnormal l too); NaN and ±Inf fail every compare and take the formula.
//
//go:noinline
func minImageWrap(d float64, p Period) float64 {
	if a := math.Abs(d); a > p.wrapLo && a < p.wrapHi {
		if d > 0 {
			return d - p.l
		}
		return d + p.l
	}
	return minImageFormula(d, p.l)
}

// minImageFormula is the reference definition of the minimum image; every
// faster path above must return its bits.
func minImageFormula(d, l float64) float64 {
	d -= l * math.Round(d/l)
	return d
}

// MinImage1 returns the minimum-image reduction of displacement d in a
// periodic box of length l: the scalar form of MinImage and the one
// implementation every package routes to (decomposed engines must match it
// bitwise). Loops over many pairs hoist NewPeriod out and call
// Period.MinImage.
func MinImage1(d, l float64) float64 { return NewPeriod(l).MinImage(d) }

// Periods returns the box lengths as Periods, for pair loops.
func (s *System) Periods() (px, py, pz Period) {
	return NewPeriod(s.Lx), NewPeriod(s.Ly), NewPeriod(s.Lz)
}

// MinImage returns the minimum-image displacement from atom j to atom i.
func (s *System) MinImage(i, j int) (dx, dy, dz float64) {
	dx = MinImage1(s.X[3*i]-s.X[3*j], s.Lx)
	dy = MinImage1(s.X[3*i+1]-s.X[3*j+1], s.Ly)
	dz = MinImage1(s.X[3*i+2]-s.X[3*j+2], s.Lz)
	return
}

// KineticEnergy returns Σ ½ m v².
func (s *System) KineticEnergy() float64 {
	var ke float64
	for i := 0; i < s.N; i++ {
		v2 := s.V[3*i]*s.V[3*i] + s.V[3*i+1]*s.V[3*i+1] + s.V[3*i+2]*s.V[3*i+2]
		ke += 0.5 * s.Mass[i] * v2
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature in Hartree
// (k_B T = 2 KE / 3N).
func (s *System) Temperature() float64 {
	return 2 * s.KineticEnergy() / (3 * float64(s.N))
}

// InitVelocities draws Maxwell–Boltzmann velocities at thermal energy kT
// (Hartree) and removes the center-of-mass drift.
func (s *System) InitVelocities(kT float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < s.N; i++ {
		sigma := math.Sqrt(kT / s.Mass[i])
		for d := 0; d < 3; d++ {
			s.V[3*i+d] = sigma * rng.NormFloat64()
		}
	}
	s.RemoveDrift()
}

// RemoveDrift zeroes the center-of-mass momentum.
func (s *System) RemoveDrift() {
	var px, py, pz, m float64
	for i := 0; i < s.N; i++ {
		px += s.Mass[i] * s.V[3*i]
		py += s.Mass[i] * s.V[3*i+1]
		pz += s.Mass[i] * s.V[3*i+2]
		m += s.Mass[i]
	}
	for i := 0; i < s.N; i++ {
		s.V[3*i] -= px / m
		s.V[3*i+1] -= py / m
		s.V[3*i+2] -= pz / m
	}
}

// ForceField computes forces (into sys.F, overwriting) and returns the
// potential energy.
type ForceField interface {
	ComputeForces(sys *System) float64
}

// VelocityVerlet advances the system one step of dt under ff, returning the
// potential energy after the step. sys.F must hold forces consistent with
// the current positions (call ff.ComputeForces once before the first step).
func VelocityVerlet(sys *System, ff ForceField, dt float64) float64 {
	for i := 0; i < sys.N; i++ {
		im := 1 / sys.Mass[i]
		for d := 0; d < 3; d++ {
			sys.V[3*i+d] += 0.5 * dt * sys.F[3*i+d] * im
			sys.X[3*i+d] += dt * sys.V[3*i+d]
		}
	}
	sys.Wrap()
	pe := ff.ComputeForces(sys)
	for i := 0; i < sys.N; i++ {
		im := 1 / sys.Mass[i]
		for d := 0; d < 3; d++ {
			sys.V[3*i+d] += 0.5 * dt * sys.F[3*i+d] * im
		}
	}
	return pe
}

// BerendsenLambda returns the Berendsen velocity-rescaling factor toward
// target thermal energy kT from current temperature cur with time constant
// tau. The square-root argument 1 + dt/tau·(kT/cur − 1) goes negative when
// the coupling is over-aggressive (dt > tau) and the system is much hotter
// than the target (cur > kT·dt/(dt − tau)) — e.g. right after an excitation
// kick with tau ≲ dt — which would yield a NaN scale factor that silently
// poisons every velocity. The argument is clamped at 0, so extreme
// overshoot quenches the velocities instead of destroying the state.
func BerendsenLambda(cur, kT, tau, dt float64) float64 {
	arg := 1 + dt/tau*(kT/cur-1)
	if arg < 0 {
		arg = 0
	}
	return math.Sqrt(arg)
}

// BerendsenThermostat rescales velocities toward target thermal energy kT
// with time constant tau (apply once per step after VelocityVerlet).
func BerendsenThermostat(sys *System, kT, tau, dt float64) {
	cur := sys.Temperature()
	if cur <= 0 {
		return
	}
	lambda := BerendsenLambda(cur, kT, tau, dt)
	for i := range sys.V {
		sys.V[i] *= lambda
	}
}

// LangevinThermostat applies the BAOAB-style Ornstein-Uhlenbeck velocity
// update with friction gamma (1/a.u.) at thermal energy kT.
func LangevinThermostat(sys *System, kT, gamma, dt float64, rng *rand.Rand) {
	c1 := math.Exp(-gamma * dt)
	for i := 0; i < sys.N; i++ {
		c2 := math.Sqrt((1 - c1*c1) * kT / sys.Mass[i])
		for d := 0; d < 3; d++ {
			sys.V[3*i+d] = c1*sys.V[3*i+d] + c2*rng.NormFloat64()
		}
	}
}
