// Package core is the MLMD orchestrator: it wires the divide-and-conquer
// Maxwell–Ehrenfest–surface-hopping module (DC-MESH) and the excited-state
// neural-network MD module (XS-NNQMD) into the end-to-end multiscale
// pipeline of the paper (Figs. 1–3): a laser pulse excites electrons in
// every spatial domain (attosecond scale), surface hopping carries the
// excitation across the femtosecond boundary, and the per-domain excitation
// counts n_exc drive the blended-force neural MD that evolves the
// topological texture on device scales.
package core

import (
	"fmt"
	"math"

	"mlmd/internal/dc"
	"mlmd/internal/grid"
	"mlmd/internal/linalg"
	"mlmd/internal/maxwell"
	"mlmd/internal/par"
	"mlmd/internal/precision"
	"mlmd/internal/sh"
	"mlmd/internal/tddft"
	"mlmd/internal/units"
)

// DCMESHConfig configures the quantum-dynamics module.
type DCMESHConfig struct {
	// Global is the global finite-difference mesh; Dx,Dy,Dz split it into
	// domains (Sec. V.A.1).
	Global     grid.Grid
	Dx, Dy, Dz int
	// Norb is the number of Kohn–Sham orbitals per domain.
	Norb int
	// NQD is the number of QD sub-steps per MD step (Eq. 2).
	NQD int
	// DtQD is the QD time step in a.u. (~1 attosecond ≈ 0.04 a.u.).
	DtQD float64
	// Pulse is the driving laser.
	Pulse maxwell.Pulse
	// Impl selects the kin_prop implementation.
	Impl tddft.Impl
	// NonlocalMode is the precision of the GEMMified nonlocal correction
	// (FP64 for reference, BF16 for the mixed-precision production mode).
	NonlocalMode precision.Mode
	// NonlocalDelta is the scissor strength (0 disables).
	NonlocalDelta complex128
	// KT is the electronic thermal energy (Hartree) for surface hopping.
	KT float64
	// GroundIters is the imaginary-time iteration count for Ψ(0).
	GroundIters int
	// CurrentFeedback enables the TDCDFT back-action (Sec. V.B.5): each
	// domain's electric current J_x drives Maxwell's equations as a source
	// at the domain's macroscopic cell, updated once per MD step (the
	// shadow-dynamics cadence).
	CurrentFeedback bool
	Seed            int64
}

// DefaultDCMESHConfig returns a small but complete configuration suitable
// for tests and examples.
func DefaultDCMESHConfig() DCMESHConfig {
	return DCMESHConfig{
		Global: grid.NewCubic(16, 0.8),
		Dx:     2, Dy: 2, Dz: 2,
		Norb:          4,
		NQD:           40,
		DtQD:          0.04,
		Pulse:         maxwell.NewPulse(0.05, units.Hartree(1.55), 1.0, 1.0),
		Impl:          tddft.ImplParallel,
		NonlocalMode:  precision.ModeFP64,
		NonlocalDelta: 0,
		KT:            units.ThermalEnergy(300),
		GroundIters:   400,
		Seed:          1,
	}
}

// DomainState is one Ω_α: its local TDDFT problem plus surface-hopping
// occupations.
type DomainState struct {
	Dom    dc.Domain
	G      grid.Grid
	H      *tddft.Hamiltonian
	Prop   *tddft.Propagator
	Psi    *grid.WaveField
	Psi0   *grid.WaveField
	SH     *sh.State
	Occ0   []float64
	NExc   float64
	Energy []float64
	// XCell is the Maxwell-grid cell this domain's macroscopic position
	// maps to (the X(α) of Eq. 3).
	XCell int

	// Per-MD-step scratch, reused so advanceDomain does not allocate: the
	// survival probabilities and the occupation hand-off, the Norb×Norb
	// overlap matrix of the nonadiabatic couplings, and the couplings.
	surv      []float64
	occ       []float64
	overlap   []complex128
	couplings []sh.Coupling
}

// DCMESH is the assembled quantum-dynamics module.
type DCMESH struct {
	Cfg     DCMESHConfig
	Decomp  *dc.Decomposition
	Domains []*DomainState
	Field   *maxwell.Field
	time    float64
	step    int

	// aHist is the sampled vector potential of one MD step, domain-major:
	// aHist[di*NQD+q] = A_x(X_di) at QD sub-step q, so each domain's history
	// is one contiguous slice. nExc is the gathered result MDStep returns.
	// Both are reused across steps.
	aHist []float64
	nExc  []float64

	// advance is advanceDomains bound once, so MDStep hands the pool a
	// function value without allocating a closure per step.
	advance func(lo, hi, worker int)
}

// NewDCMESH builds the module: decomposition, per-domain ground states
// (Ψ(0)), surface-hopping states, and the 1-D FDTD light field spanning the
// global cell along x.
func NewDCMESH(cfg DCMESHConfig) (*DCMESH, error) {
	decomp, err := dc.NewDecomposition(cfg.Global, cfg.Dx, cfg.Dy, cfg.Dz, 0.5)
	if err != nil {
		return nil, err
	}
	if cfg.Norb < 2 {
		return nil, fmt.Errorf("core: need at least 2 orbitals for excitation, got %d", cfg.Norb)
	}
	if cfg.NQD < 1 || cfg.DtQD <= 0 {
		return nil, fmt.Errorf("core: bad QD stepping NQD=%d dt=%g", cfg.NQD, cfg.DtQD)
	}
	// Light field: resolve the global box along x with enough cells,
	// CFL-stable at the QD step.
	lx, _, _ := cfg.Global.LxLyLz()
	nCells := 64
	dx := lx / float64(nCells)
	dt := cfg.DtQD
	if units.LightSpeed*dt > dx {
		// Refine dt per FDTD sub-step; we sub-cycle the field.
		dt = 0.9 * dx / units.LightSpeed
	}
	field, err := maxwell.NewField(nCells, dx, dt)
	if err != nil {
		return nil, err
	}
	domains := decomp.Domains()
	m := &DCMESH{
		Cfg: cfg, Decomp: decomp, Field: field,
		Domains: make([]*DomainState, len(domains)),
		aHist:   make([]float64, len(domains)*cfg.NQD),
		nExc:    make([]float64, len(domains)),
	}
	m.advance = m.advanceDomains
	// The domain ground states are independent and seeded by domain ID, so
	// they are prepared side by side on the worker pool; every domain lands
	// in its own slot, whatever the worker count.
	errs := make([]error, len(domains))
	par.For(len(domains), 1, func(lo, hi, _ int) {
		for di := lo; di < hi; di++ {
			m.Domains[di], errs[di] = newDomainState(cfg, decomp, field, domains[di])
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// newDomainState prepares one domain: its local Hamiltonian, ground state
// Ψ(0), surface-hopping state and propagator.
func newDomainState(cfg DCMESHConfig, decomp *dc.Decomposition, field *maxwell.Field, dom dc.Domain) (*DomainState, error) {
	lg := decomp.LocalGrid(dom)
	h := tddft.NewHamiltonian(lg, grid.Order2)
	// External potential: a soft harmonic confinement per domain.
	tddft.HarmonicPotential(lg, 0.04, h.Vloc)
	psi, energies := tddft.GroundState(h, cfg.Norb, cfg.GroundIters, cfg.Seed+int64(dom.ID))
	occ0 := make([]float64, cfg.Norb)
	for s := 0; s < cfg.Norb/2; s++ {
		occ0[s] = 1 // lower half occupied: a gapped "valence band"
	}
	shState, err := sh.NewState(energies, occ0, cfg.KT, cfg.Seed+1000+int64(dom.ID))
	if err != nil {
		return nil, err
	}
	prop, err := tddft.NewPropagator(h, cfg.Impl)
	if err != nil {
		return nil, err
	}
	if cfg.NonlocalDelta != 0 {
		prop.NL = &tddft.Scissor{Delta: cfg.NonlocalDelta, Mode: cfg.NonlocalMode}
		prop.Psi0 = psi.Clone()
	}
	xMid := (float64(dom.Cx) + float64(dom.CNx)/2) * cfg.Global.Hx
	return &DomainState{
		Dom: dom, G: lg, H: h, Prop: prop,
		Psi: psi, Psi0: psi.Clone(), SH: shState,
		Occ0: occ0, Energy: energies,
		XCell:   field.CellFor(xMid),
		surv:    make([]float64, cfg.Norb),
		occ:     make([]float64, cfg.Norb),
		overlap: make([]complex128, cfg.Norb*cfg.Norb),
	}, nil
}

// Time returns the elapsed simulation time (a.u.).
func (m *DCMESH) Time() float64 { return m.time }

// MDStep advances the module by one MD step: N_QD Ehrenfest sub-steps per
// domain under the sampled light field (data-parallel across domains — the
// paper's one-rank-per-domain map), followed by the surface-hopping
// occupation update at the MD cadence, and returns the per-domain
// photoexcited-electron counts n_exc (the MPI-gathered quantity of
// Sec. V.A.8). The returned slice is owned by the module and overwritten by
// the next MDStep; copy it to keep it.
func (m *DCMESH) MDStep() []float64 {
	cfg := m.Cfg
	m.sampleField()
	// Ehrenfest propagation per domain, data-parallel on the shared worker
	// pool (the paper's one-rank-per-domain map; the shadow-dynamics
	// survival/occupation hand-off happens inside advanceDomain). Domain
	// propagation itself nests pool-parallel kernels, which par handles
	// without oversubscribing.
	par.For(len(m.Domains), 1, m.advance)
	m.step++
	m.time += float64(cfg.NQD) * cfg.DtQD
	if cfg.CurrentFeedback {
		m.feedCurrents()
	}
	// Gather n_exc (the once-per-MD-step collective).
	for i, d := range m.Domains {
		m.nExc[i] = d.NExc
	}
	return m.nExc
}

// advanceDomains is MDStep's pool task: it advances domains [lo, hi).
func (m *DCMESH) advanceDomains(lo, hi, _ int) {
	for di := lo; di < hi; di++ {
		m.advanceDomain(m.Domains[di], m.domainField(di))
	}
}

// advanceDomain runs MDStep's per-domain Ehrenfest + SH update: ax is the
// domain's vector-potential history, one value per QD sub-step.
func (m *DCMESH) advanceDomain(d *DomainState, ax []float64) {
	cfg := m.Cfg
	d.Prop.RunDriven(d.Psi, cfg.DtQD, ax)
	surv := d.surv
	tddft.ProjectOccupations(surv, d.Psi0, d.Psi)
	occ := d.occ
	var promoted float64
	for s := range occ {
		occ[s] = d.Occ0[s] * surv[s]
		promoted += d.Occ0[s] * (1 - surv[s])
	}
	nEmpty := 0
	for s := range occ {
		if d.Occ0[s] < 0.5 {
			nEmpty++
		}
	}
	if nEmpty > 0 {
		for s := range occ {
			if d.Occ0[s] < 0.5 {
				occ[s] += promoted / float64(nEmpty)
			}
		}
	}
	copy(d.SH.F, occ)
	dtMD := float64(cfg.NQD) * cfg.DtQD
	couplings := m.domainCouplings(d, dtMD)
	d.SH.Step(couplings, dtMD)
	d.NExc = tddft.ExcitedPopulation(d.Occ0, d.SH.F)
}

// sampleField sub-cycles the FDTD field across one MD step, recording
// A(X_α) per QD sub-step for every domain into aHist (field cells are shared
// read-only between domain goroutines once sampled).
func (m *DCMESH) sampleField() {
	cfg := m.Cfg
	fieldSteps := int(math.Ceil(cfg.DtQD / m.Field.Dt))
	for q := 0; q < cfg.NQD; q++ {
		m.Field.DriveSteps(cfg.Pulse, 0, fieldSteps)
		for di, d := range m.Domains {
			m.aHist[di*cfg.NQD+q] = m.Field.Sample(d.XCell)
		}
	}
}

// domainField is domain di's vector-potential history of the current MD
// step: one value per QD sub-step.
func (m *DCMESH) domainField(di int) []float64 {
	nqd := m.Cfg.NQD
	return m.aHist[di*nqd : (di+1)*nqd]
}

// feedCurrents computes each domain's electric current and installs it as
// the macroscopic current-density source of the light field at the domain's
// cell — the TDCDFT feedback loop closing light → electrons → light. The
// current is normalized per cell volume slab so the source scales sensibly
// with domain count.
func (m *DCMESH) feedCurrents() {
	for i := range m.Field.J {
		m.Field.J[i] = 0
	}
	slab := m.Field.Dx * float64(m.Cfg.Global.Ny) * m.Cfg.Global.Hy * float64(m.Cfg.Global.Nz) * m.Cfg.Global.Hz
	for _, d := range m.Domains {
		j := tddft.CurrentX(d.H, d.Psi, d.SH.F)
		m.Field.J[d.XCell] += j / slab
	}
}

// FieldEnergy exposes the light field's energy for absorption diagnostics.
func (m *DCMESH) FieldEnergy() float64 { return m.Field.Energy() }

// domainCouplings estimates nonadiabatic pair couplings from orbital
// overlaps between Ψ(0) and Ψ(t) within a domain: one column-dot sweep per
// orbital a gives ⟨ψ0_a|ψ_b⟩ for every b > a. The result is the domain's
// scratch, overwritten by the next call.
func (m *DCMESH) domainCouplings(d *DomainState, dt float64) []sh.Coupling {
	norb := d.Psi.Norb
	o := d.overlap // only the strict upper triangle is written and read
	dv := complex(d.G.DV(), 0)
	for a := 0; a < norb-1; a++ {
		row := o[a*norb+a+1 : (a+1)*norb]
		linalg.ZDotCol(row, d.Psi0.Data, a, d.Psi.Data, norb, a+1)
		for b := range row {
			row[b] *= dv
		}
	}
	d.couplings = sh.CouplingsFromOverlaps(d.couplings[:0], o, norb, dt, 1e-6)
	return d.couplings
}

// TotalExcitation returns Σ_α n_exc.
func (m *DCMESH) TotalExcitation() float64 {
	var sum float64
	for _, d := range m.Domains {
		sum += d.NExc
	}
	return sum
}

// NormDrift returns the worst orbital-norm drift across domains — the
// stability diagnostic of the unitary propagation.
func (m *DCMESH) NormDrift() float64 {
	worst := 0.0
	for _, d := range m.Domains {
		if v := tddft.NormDrift(d.Psi); v > worst {
			worst = v
		}
	}
	return worst
}
