// Package maxwell propagates the laser electromagnetic field through the
// material with a 1-D finite-difference time-domain (FDTD) scheme, following
// the multiscale Maxwell+TDDFT coupling of the paper (Eq. 3): the material is
// resolved along the light-propagation axis x; each divide-and-conquer domain
// α sits at a macroscopic position X(α) and samples the local vector
// potential A(X(α), t), while the domains' microscopic electric currents
// J(X, t) feed back into Maxwell's equations as source terms.
//
// Atomic units: the wave equation for the vector potential reads
//
//	∂²A/∂t² = c² ∂²A/∂x² − 4π c J
//
// with E = −(1/c) ∂A/∂t. A is polarized transverse to x; we track a single
// polarization component.
package maxwell

import (
	"fmt"
	"math"

	"mlmd/internal/units"
)

// Field is the 1-D FDTD state for one transverse component of the vector
// potential A(x,t) on a periodic line of n cells.
type Field struct {
	N  int     // number of cells along the propagation axis
	Dx float64 // cell size (Bohr)
	Dt float64 // time step (a.u.); must satisfy the CFL bound
	// A, APrev hold A at the current and previous time levels.
	A, APrev []float64
	// J is the macroscopic current density source, set by the caller
	// between steps (TDCDFT feedback, Sec. V.B.5).
	J []float64
	t float64
}

// NewField constructs an FDTD line. dt must satisfy the CFL condition
// c·dt ≤ dx; NewField returns an error otherwise.
func NewField(n int, dx, dt float64) (*Field, error) {
	if n < 3 {
		return nil, fmt.Errorf("maxwell: need at least 3 cells, got %d", n)
	}
	if dx <= 0 || dt <= 0 {
		return nil, fmt.Errorf("maxwell: dx and dt must be positive")
	}
	if units.LightSpeed*dt > dx {
		return nil, fmt.Errorf("maxwell: CFL violated: c*dt = %g > dx = %g", units.LightSpeed*dt, dx)
	}
	return &Field{
		N: n, Dx: dx, Dt: dt,
		A:     make([]float64, n),
		APrev: make([]float64, n),
		J:     make([]float64, n),
	}, nil
}

// Time returns the current simulation time (a.u.).
func (f *Field) Time() float64 { return f.t }

// Step advances A by one time step with the leapfrog update
// A(t+dt) = 2A(t) − A(t−dt) + (c dt/dx)² (A_{i+1} − 2A_i + A_{i−1}) − 4π c dt² J.
//
//mlmd:hotpath
func (f *Field) Step() {
	c := units.LightSpeed
	r2 := (c * f.Dt / f.Dx) * (c * f.Dt / f.Dx)
	// The previous level is consumed exactly at index i before index i is
	// overwritten (the stencil reads only A at neighbors), so the retired
	// APrev buffer doubles as the next level: the update stays bitwise
	// identical while Step stays allocation-free.
	next := f.APrev
	for i := 0; i < f.N; i++ {
		ip := i + 1
		if ip == f.N {
			ip = 0
		}
		im := i - 1
		if im < 0 {
			im = f.N - 1
		}
		lap := f.A[ip] - 2*f.A[i] + f.A[im]
		next[i] = 2*f.A[i] - next[i] + r2*lap - 4*math.Pi*c*f.Dt*f.Dt*f.J[i]
	}
	f.APrev, f.A = f.A, next
	f.t += f.Dt
}

// Sample returns the vector potential at cell i (the A_X(α) of Eq. 3 for a
// domain whose macroscopic position maps to cell i).
func (f *Field) Sample(i int) float64 { return f.A[i] }

// CellFor maps a macroscopic position x (Bohr) to the nearest cell index.
func (f *Field) CellFor(x float64) int {
	i := int(math.Round(x/f.Dx)) % f.N
	if i < 0 {
		i += f.N
	}
	return i
}

// Energy returns the total field energy (1/8π)∫(E² + B²)dx per unit
// cross-section, with B = ∂A/∂x.
func (f *Field) Energy() float64 {
	c := units.LightSpeed
	sum := 0.0
	for i := 0; i < f.N; i++ {
		ip := i + 1
		if ip == f.N {
			ip = 0
		}
		e := -(f.A[i] - f.APrev[i]) / (c * f.Dt)
		b := (f.A[ip] - f.A[i]) / f.Dx
		sum += e*e + b*b
	}
	return sum * f.Dx / (8 * math.Pi)
}

// Pulse describes a Gaussian-envelope laser pulse.
type Pulse struct {
	Amplitude float64 // peak vector potential A0 (a.u.)
	Omega     float64 // carrier angular frequency (a.u.)
	Center    float64 // envelope center time t0 (a.u.)
	Width     float64 // Gaussian RMS width σ (a.u.)
}

// NewPulse builds a pulse from laboratory-style parameters: peak intensity
// measured by the peak E field (a.u.), photon energy (Hartree), center and
// FWHM duration in femtoseconds.
func NewPulse(e0, photonHa, centerFS, fwhmFS float64) Pulse {
	omega := photonHa
	sigma := units.AUTime(fwhmFS) / (2 * math.Sqrt(2*math.Ln2))
	a0 := 0.0
	if omega > 0 {
		a0 = e0 * units.LightSpeed / omega
	}
	return Pulse{Amplitude: a0, Omega: omega, Center: units.AUTime(centerFS), Width: sigma}
}

// VectorPotential returns A(t) of the pulse at time t.
func (p Pulse) VectorPotential(t float64) float64 {
	env := math.Exp(-0.5 * (t - p.Center) * (t - p.Center) / (p.Width * p.Width))
	return p.Amplitude * env * math.Sin(p.Omega*(t-p.Center))
}

// EFieldAt returns E(t) = −(1/c) dA/dt analytically.
func (p Pulse) EFieldAt(t float64) float64 {
	u := t - p.Center
	env := math.Exp(-0.5 * u * u / (p.Width * p.Width))
	dA := p.Amplitude * env * (p.Omega*math.Cos(p.Omega*u) - u/(p.Width*p.Width)*math.Sin(p.Omega*u))
	return -dA / units.LightSpeed
}

// Drive pins the source cell to the analytic pulse at the current time
// level pair (a hard source): both A and A_prev are set consistently so the
// leapfrog update sees the correct discrete time derivative. Call before
// each Step; for multi-step sub-cycling use DriveSteps, which re-pins the
// source every sub-step (pinning only once per batch lets the free evolution
// of the source cell fight the overwrite and go unstable).
func (f *Field) Drive(p Pulse, cell int) {
	f.A[cell] = p.VectorPotential(f.t)
	f.APrev[cell] = p.VectorPotential(f.t - f.Dt)
}

// DriveSteps advances the field n steps with the source cell pinned to the
// pulse at every step.
func (f *Field) DriveSteps(p Pulse, cell, n int) {
	for i := 0; i < n; i++ {
		f.Drive(p, cell)
		f.Step()
	}
}

// DipoleSource injects a current J at a cell; used in tests and by the
// TDCDFT feedback loop.
func (f *Field) DipoleSource(cell int, j float64) {
	f.J[cell] = j
}
