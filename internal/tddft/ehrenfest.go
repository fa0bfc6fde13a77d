package tddft

import (
	"fmt"

	"mlmd/internal/grid"
)

// Ehrenfest couples the quantum electrons to classical ions in the mean
// field: electrons evolve under v_ext(R(t)) through the split-operator
// propagator, ions move under the Hellmann–Feynman force from the electron
// density plus any classical ion–ion term — the Maxwell-Ehrenfest "ME" level
// of the MESH hierarchy, run at the QD time step.
type Ehrenfest struct {
	H    *Hamiltonian
	Prop *Propagator
	Ions *IonPotential
	// Mass per ion (a.u.).
	Mass []float64
	// V holds ion velocities (flattened per-ion xyz... stored as [][3]).
	Vel [][3]float64
	// IonPairK is an optional harmonic ion-ion repulsion constant keeping
	// ions apart (0 disables); a stand-in for the classical core-core term.
	IonPairK float64
	// NQDPerIon is how many electron sub-steps advance per ion step
	// (electrons move on the attosecond scale, ions ~100x slower).
	NQDPerIon int
	// VStatic is an optional fixed external potential (a trap, a substrate
	// field) added to the ionic potential whenever it is rebuilt.
	VStatic []float64
	rho     []float64
}

// NewEhrenfest builds the coupled propagator. masses must match the ion
// count.
func NewEhrenfest(h *Hamiltonian, ions *IonPotential, masses []float64, impl Impl) (*Ehrenfest, error) {
	if len(masses) != len(ions.Ions) {
		return nil, fmt.Errorf("tddft: %d masses for %d ions", len(masses), len(ions.Ions))
	}
	prop, err := NewPropagator(h, impl)
	if err != nil {
		return nil, err
	}
	e := &Ehrenfest{
		H: h, Prop: prop, Ions: ions,
		Mass:      append([]float64(nil), masses...),
		Vel:       make([][3]float64, len(masses)),
		NQDPerIon: 20,
		rho:       make([]float64, h.G.Len()),
	}
	return e, nil
}

// Step advances the coupled system by one ion step of dtIon: velocity
// Verlet for the ions with NQDPerIon electron sub-steps of dtIon/NQDPerIon
// in between, rebuilding v_ext(R) after the position update (the Δv_loc
// hand-off of the shadow dynamics).
func (e *Ehrenfest) Step(w *grid.WaveField, dtIon float64) {
	w.Density(e.rho, e.Prop.Occ)
	forces := e.totalForces()
	// Half kick.
	for k := range e.Ions.Ions {
		for d := 0; d < 3; d++ {
			e.Vel[k][d] += 0.5 * dtIon * forces[k][d] / e.Mass[k]
		}
	}
	// Drift.
	for k := range e.Ions.Ions {
		for d := 0; d < 3; d++ {
			e.Ions.Ions[k].R[d] += dtIon * e.Vel[k][d]
		}
	}
	// Rebuild the local potential at the new ionic positions (keep any
	// mean-field pieces managed by the propagator's Hartree refresh).
	e.Ions.Fill(e.H.Vloc)
	if e.VStatic != nil {
		for i := range e.H.Vloc {
			e.H.Vloc[i] += e.VStatic[i]
		}
	}
	// Electron sub-steps: v_loc is fixed until the next ion step (Hartree
	// refreshes aside, which the propagator handles), so one run shares the
	// potential phases across all of them.
	e.Prop.run(w, dtIon/float64(e.NQDPerIon), e.NQDPerIon, nil)
	// Forces at the new positions, half kick.
	w.Density(e.rho, e.Prop.Occ)
	forces = e.totalForces()
	for k := range e.Ions.Ions {
		for d := 0; d < 3; d++ {
			e.Vel[k][d] += 0.5 * dtIon * forces[k][d] / e.Mass[k]
		}
	}
}

// totalForces returns Hellmann–Feynman + optional pair repulsion forces.
func (e *Ehrenfest) totalForces() [][3]float64 {
	f := e.Ions.Forces(e.rho)
	if e.IonPairK > 0 {
		lx, ly, lz := e.H.G.LxLyLz()
		for a := 0; a < len(e.Ions.Ions); a++ {
			for b := a + 1; b < len(e.Ions.Ions); b++ {
				dx := grid.MinImage(e.Ions.Ions[a].R[0]-e.Ions.Ions[b].R[0], lx)
				dy := grid.MinImage(e.Ions.Ions[a].R[1]-e.Ions.Ions[b].R[1], ly)
				dz := grid.MinImage(e.Ions.Ions[a].R[2]-e.Ions.Ions[b].R[2], lz)
				f[a][0] += e.IonPairK * dx
				f[a][1] += e.IonPairK * dy
				f[a][2] += e.IonPairK * dz
				f[b][0] -= e.IonPairK * dx
				f[b][1] -= e.IonPairK * dy
				f[b][2] -= e.IonPairK * dz
			}
		}
	}
	return f
}

// IonKineticEnergy returns Σ ½ m v².
func (e *Ehrenfest) IonKineticEnergy() float64 {
	var ke float64
	for k := range e.Vel {
		v := e.Vel[k]
		ke += 0.5 * e.Mass[k] * (v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
	}
	return ke
}
