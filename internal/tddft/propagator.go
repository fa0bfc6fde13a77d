package tddft

import (
	"fmt"

	"mlmd/internal/grid"
)

// Propagator advances the Kohn–Sham orbitals of one divide-and-conquer
// domain through real time: the split-operator local step (Eq. 2)
//
//	ψ(t+Δt) = e^{−iΔt v/2} e^{−iΔt T} e^{−iΔt v/2} ψ(t)
//
// optionally followed by the perturbative GEMMified nonlocal correction.
// The propagation is unitary by construction (each factor is unitary), which
// realizes the "self-consistent, time-reversible unitary approach" the paper
// adopts (ref [43]).
type Propagator struct {
	H    *Hamiltonian
	KP   *KinProp
	Impl Impl
	// NL, if non-nil, is applied after each local step.
	NL *Scissor
	// Psi0 is the reference field Ψ(0) for the scissor correction.
	Psi0 *grid.WaveField
	// Hartree, if non-nil, is refreshed every HartreeEvery steps via DSA.
	Hartree      *HartreeSolver
	HartreeEvery int
	// VExt is the static external (ionic) potential; the total Vloc is
	// rebuilt as VExt + vH + vxc whenever Hartree refreshes.
	VExt []float64
	Occ  []float64 // orbital occupations f_s ∈ [0,1] (nil = all 1)

	step int
	rho  []float64
	vxc  []float64
	// phase is e^{−i·Δt/2·v_loc}, the half-step potential phase. It is
	// owned by run: built on entry and after every Hartree refresh, never
	// kept across calls — so there is nothing to invalidate when a caller
	// changes H.Vloc between calls.
	phase []complex128
}

// NewPropagator wires a propagator for the Hamiltonian h.
func NewPropagator(h *Hamiltonian, impl Impl) (*Propagator, error) {
	kp, err := NewKinProp(h.G)
	if err != nil {
		return nil, fmt.Errorf("tddft: %w", err)
	}
	return &Propagator{H: h, KP: kp, Impl: impl, HartreeEvery: 10}, nil
}

// Step advances w by one QD time step dt under the Hamiltonian's current
// vector potential. It evaluates the potential phases for this one step;
// callers taking many sub-steps between changes of v_loc should use Run or
// RunDriven, which evaluate them once.
func (p *Propagator) Step(w *grid.WaveField, dt float64) {
	p.run(w, dt, 1, nil)
}

// Run advances w by nSteps steps of dt under the Hamiltonian's current
// vector potential, returning the drift in total norm (max over orbitals of
// |‖ψ‖²−1|) as a cheap stability diagnostic. It is bitwise nSteps calls of
// Step.
func (p *Propagator) Run(w *grid.WaveField, dt float64, nSteps int) float64 {
	p.run(w, dt, nSteps, nil)
	return NormDrift(w)
}

// RunDriven advances w by len(ax) steps of dt, sub-step q under the uniform
// vector potential ax[q] (which it leaves in H.Ax) — one MD step's worth of
// QD sub-steps under the sampled laser field. It is bitwise the loop
// "H.Ax = ax[q]; Step(w, dt)", with the trig of the potential phase
// evaluated O(Ngrid) times per call instead of per sub-step.
func (p *Propagator) RunDriven(w *grid.WaveField, dt float64, ax []float64) {
	p.run(w, dt, len(ax), ax)
}

// run is the one sub-step loop behind Step, Run and RunDriven: per sub-step
// the split-operator product e^{−iΔt v/2} e^{−iΔt T} e^{−iΔt v/2}, the
// optional nonlocal correction, and the periodic Hartree refresh. A nil ax
// keeps H.Ax as it is.
func (p *Propagator) run(w *grid.WaveField, dt float64, n int, ax []float64) {
	if w.G != p.H.G {
		panic("tddft: Propagator grid mismatch")
	}
	parallel := p.Impl == ImplParallel
	p.buildPhase(dt / 2)
	for q := 0; q < n; q++ {
		if ax != nil {
			p.H.Ax = ax[q]
		}
		applyPhase(w, p.phase, parallel)
		p.KP.Propagate(w, dt, p.H.Ax, p.Impl)
		applyPhase(w, p.phase, parallel)
		if p.NL != nil && p.Psi0 != nil {
			p.NL.Apply(p.Psi0, w)
		}
		p.step++
		if p.Hartree != nil && p.VExt != nil && p.step%p.HartreeEvery == 0 {
			p.refreshPotential(w)
			if q+1 < n {
				p.buildPhase(dt / 2)
			}
		}
	}
}

// buildPhase fills the half-step phase table from the current H.Vloc.
func (p *Propagator) buildPhase(dt float64) {
	n := p.H.G.Len()
	if cap(p.phase) < n {
		p.phase = make([]complex128, n)
	}
	p.phase = p.phase[:n]
	phaseTable(p.phase, p.H.Vloc, dt)
}

// refreshPotential rebuilds Vloc = VExt + vH[ρ] + vxc[ρ] with a few DSA
// iterations from the previous potential (the self-consistency of Eq. 2).
func (p *Propagator) refreshPotential(w *grid.WaveField) {
	n := p.H.G.Len()
	if p.rho == nil {
		p.rho = make([]float64, n)
		p.vxc = make([]float64, n)
	}
	w.Density(p.rho, p.Occ)
	p.Hartree.StepDSA(p.rho, 12)
	XCPotentialLDA(p.rho, p.vxc)
	vh := p.Hartree.Potential()
	for i := 0; i < n; i++ {
		p.H.Vloc[i] = p.VExt[i] + vh[i] + p.vxc[i]
	}
}
