package core

import (
	"fmt"

	"mlmd/internal/ferro"
	"mlmd/internal/md"
	"mlmd/internal/mlmdio"
	"mlmd/internal/shard"
	"mlmd/internal/topo"
	"mlmd/internal/units"
)

// PipelineConfig configures the end-to-end multiscale run of Fig. 3:
// GS-NNQMD prepares a polar-skyrmion superlattice, DC-MESH simulates the
// femtosecond pulse and reports per-domain excitation, XS-NNQMD evolves the
// texture under the softened wells.
type PipelineConfig struct {
	// Lattice supercell (unit cells per axis).
	LatNx, LatNy, LatNz int
	// Skyrmion superlattice: SkyGrid × SkyGrid array with the given core
	// radius (in cells). SkyGrid 0 is the uniform +s0 texture.
	SkyGrid   int
	SkyRadius float64
	// DCMESH configures the quantum module (its Dx,Dy,Dz must divide the
	// lattice dims).
	DCMESH DCMESHConfig
	// PulseMDSteps is how many DC-MESH MD steps the pulse window covers.
	// With 0 (as for a resume) no DC-MESH module is built and Run runs the
	// response only.
	PulseMDSteps int
	// ResponseSteps is the XS-NNQMD step count after the pulse.
	ResponseSteps int
	// NSat is the excitation saturation per domain for w mapping.
	NSat float64
	// DtMD is the XS-NNQMD time step (a.u.).
	DtMD float64
	// KT is the lattice temperature (Hartree). KT > 0 draws velocities
	// from Seed, holds the texture for holdSteps (10) steps before the
	// pulse and keeps a Langevin bath on; KT 0 is an NVE run from rest.
	KT float64
	// Seed seeds the velocities; the bath's stream is Seed+1.
	Seed int64
}

// holdSteps is the length of the ground-state relaxation in the bath
// before the pulse of a KT > 0 run.
const holdSteps = 10

// DefaultPipelineConfig returns a laptop-scale but complete configuration.
func DefaultPipelineConfig() PipelineConfig {
	cfg := PipelineConfig{
		LatNx: 24, LatNy: 24, LatNz: 4,
		SkyGrid:       2,
		SkyRadius:     3,
		DCMESH:        DefaultDCMESHConfig(),
		PulseMDSteps:  2,
		ResponseSteps: 150,
		NSat:          0.05,
		DtMD:          20,
		KT:            units.ThermalEnergy(50),
		Seed:          7,
	}
	return cfg
}

// PipelineResult records the science outcome. A resumed run skips the
// pulse, so only its final values are set.
type PipelineResult struct {
	ChargeBefore, ChargeAfterPulse, ChargeFinal float64
	TotalExcitation                             float64
	MeanPzBefore, MeanPzFinal                   float64
	Switched                                    bool
}

// Pipeline holds the assembled modules, and what a caller adds to a run:
// where the response runs and how it reports.
type Pipeline struct {
	Cfg    PipelineConfig
	Sys    *md.System
	Lat    *ferro.Lattice
	GS, XS *ferro.EffectiveHamiltonian
	QD     *DCMESH
	NN     *XSNNQMD
	// Shard and Recover configure the response's shard.RunRecovered: the
	// rank grid (zero: one in-process rank) and balancing, and the
	// checkpoint, resume, mesh and restart options. Run sets the lattice
	// halo, the force field and the step count itself.
	Shard   shard.Config
	Recover shard.RecoverOpts
	// OnPulseStep, when non-nil, runs after DC-MESH MD step s (from 1) of
	// the pulse window.
	OnPulseStep func(s int)
	// OnAttach, when non-nil, runs on every process when a mesh
	// generation's engine takes over the response.
	OnAttach func(eng *shard.Engine)
	// OnResponseStep, when non-nil, runs on every process after each
	// response step with the step count (from 1, across restarts); an
	// error ends the run.
	OnResponseStep func(step int) error
}

// latticeHalo is the response engine's decomposition: the soft-mode
// stencil reaches the neighbor cell's Ti, so the cutoff covers a lattice
// constant plus off-centering drift. Their sum is the halo every subdomain
// must clear.
func latticeHalo() (cutoff, skin float64) {
	return 1.3 * ferro.LatticeConstant, 0.4 * ferro.LatticeConstant
}

// LatticeAutoGrid is shard.AutoGrid for ranks over an nx×ny×nz lattice
// with the response engine's halo.
func LatticeAutoGrid(ranks, nx, ny, nz int) ([3]int, error) {
	a := ferro.LatticeConstant
	cutoff, skin := latticeHalo()
	return shard.AutoGrid(ranks, [3]float64{float64(nx) * a, float64(ny) * a, float64(nz) * a}, cutoff+skin)
}

// NewPipeline builds lattice, superlattice texture, force fields and the
// DC-MESH module.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	sys, lat, err := ferro.NewLattice(cfg.LatNx, cfg.LatNy, cfg.LatNz)
	if err != nil {
		return nil, err
	}
	gs := ferro.DefaultEffHam(lat)
	xs := ferro.DefaultEffHam(lat)
	xs.SetExcitation(1.0) // the XS surface: fully softened wells
	// Stamp the skyrmion superlattice into the soft modes.
	field := topo.NewField(cfg.LatNx, cfg.LatNy)
	s0 := gs.S0()
	field.Superlattice(cfg.SkyGrid, cfg.SkyGrid, cfg.SkyRadius, s0, 1)
	for cx := 0; cx < cfg.LatNx; cx++ {
		for cy := 0; cy < cfg.LatNy; cy++ {
			sx, sy, sz := field.At(cx, cy)
			for cz := 0; cz < cfg.LatNz; cz++ {
				lat.SetSoftMode(sys, lat.CellIndex(cx, cy, cz), sx, sy, sz)
			}
		}
	}
	var qd *DCMESH
	if cfg.PulseMDSteps > 0 {
		if qd, err = NewDCMESH(cfg.DCMESH); err != nil {
			return nil, err
		}
	}
	nn, err := NewXSNNQMD(sys, lat, gs, xs, cfg.DtMD, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	if cfg.KT > 0 {
		sys.InitVelocities(cfg.KT, cfg.Seed)
		nn.KT, nn.Gamma = cfg.KT, 0.002
	}
	return &Pipeline{Cfg: cfg, Sys: sys, Lat: lat, GS: gs, XS: xs, QD: qd, NN: nn}, nil
}

// Run executes prepare → pulse → response and returns the result; it runs
// once per Pipeline. With p.Recover.Resume set it restores the checkpoint
// and runs the rest of the response only, bitwise as the uninterrupted run.
func (p *Pipeline) Run() (*PipelineResult, error) {
	cfg := p.Cfg
	res := &PipelineResult{}
	if cp := p.Recover.Resume; cp != nil {
		if s := p.Sys; cp.Sys.N != s.N || cp.Sys.Lx != s.Lx || cp.Sys.Ly != s.Ly || cp.Sys.Lz != s.Lz {
			return nil, fmt.Errorf("core: checkpoint holds %d atoms in a %gx%gx%g box; the %dx%dx%d lattice has %d atoms in %gx%gx%g",
				cp.Sys.N, cp.Sys.Lx, cp.Sys.Ly, cp.Sys.Lz, cfg.LatNx, cfg.LatNy, cfg.LatNz, s.N, s.Lx, s.Ly, s.Lz)
		}
	} else if cfg.PulseMDSteps > 0 {
		// Phase 1: GS relaxation of the prepared texture in the bath.
		if cfg.KT > 0 {
			p.NN.SetUniformExcitation(0)
			p.NN.Step(holdSteps)
		}
		res.ChargeBefore = p.NN.TopologicalCharge()
		res.MeanPzBefore = p.NN.PolarizationField().MeanPz()
		// Phase 2: DC-MESH pulse — per-domain excitation counts.
		var nExc []float64
		for s := 1; s <= cfg.PulseMDSteps; s++ {
			nExc = p.QD.MDStep()
			if p.OnPulseStep != nil {
				p.OnPulseStep(s)
			}
		}
		res.TotalExcitation = p.QD.TotalExcitation()
		// Phase 3: inform XS-NNQMD.
		if err := p.NN.SetExcitationFromDomains(nExc, cfg.DCMESH.Dx, cfg.DCMESH.Dy, cfg.DCMESH.Dz, cfg.NSat); err != nil {
			return nil, fmt.Errorf("core: excitation handshake: %w", err)
		}
		res.ChargeAfterPulse = p.NN.TopologicalCharge()
	}
	// Phase 4: evolve the texture on the sharded engine.
	p.NN.CarrierLifetime = 50 * cfg.DtMD
	newFF, err := shard.BlendEffHamFactory(p.Lat, p.GS, p.XS)
	if err != nil {
		return nil, err
	}
	sc := p.Shard
	sc.Cutoff, sc.Skin = latticeHalo()
	sc.NewFF = newFF
	if sc.Grid == [3]int{} {
		sc.Grid = [3]int{1, 1, 1}
	}
	ro := p.Recover
	ro.Steps = cfg.ResponseSteps
	if _, err := shard.RunRecovered(sc, p.Sys, &latticeStage{p: p}, ro); err != nil {
		return nil, err
	}
	res.ChargeFinal = p.NN.TopologicalCharge()
	res.MeanPzFinal = p.NN.PolarizationField().MeanPz()
	res.Switched = topo.Switched(res.ChargeBefore, res.ChargeFinal)
	return res, nil
}

// latticeStage is the shard.Stage of the response: the engine serves as
// XSNNQMD's force field (ComputeForces), so every process's replicated Sys
// holds the whole state and a checkpoint is filled from it — never
// gathered, as the ranks' own velocities do not advance on that path.
// XSNNQMD.Step(n) is a plain loop of single steps, so chunking is
// invisible to the trajectory: it is bitwise the same with checkpointing
// on, off, resumed or recovered.
type latticeStage struct {
	p    *Pipeline
	step int
	eng  *shard.Engine
}

// Attach installs eng as the force field. The forces sys holds (those of
// the last step, or of the checkpoint just restored) stay, so the first
// half-kick uses exactly them.
func (s *latticeStage) Attach(eng *shard.Engine, _ *md.System) error {
	s.eng = eng
	s.p.NN.SetForceField(eng)
	if s.p.OnAttach != nil {
		s.p.OnAttach(eng)
	}
	return eng.Err()
}

// Advance steps the lattice n MD steps, reporting after each.
func (s *latticeStage) Advance(n int) error {
	for range n {
		s.p.NN.Step(1)
		s.step++
		err := s.eng.Err()
		if err == nil && s.p.OnResponseStep != nil {
			err = s.p.OnResponseStep(s.step)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Fill adds the lattice clock and the decayed excitation map.
func (s *latticeStage) Fill(cp *mlmdio.Checkpoint) error {
	cp.Time, cp.Dt, cp.Extra = s.p.NN.Time(), s.p.NN.DtMD, s.p.NN.ExcitationPerCell
	return nil
}

// Restore takes the response step, the lattice clock and the excitation
// map from cp, and replays the bath's draws up to cp: those of the hold
// and of cp.Step response steps. (The bath is on only with KT > 0, so the
// checkpointed run held before its pulse — unless it ran with
// PulseMDSteps 0, whose checkpoints resume off the uninterrupted stream.)
func (s *latticeStage) Restore(cp *mlmdio.Checkpoint) error {
	s.step = int(cp.Step)
	s.p.NN.replayBath(holdSteps + s.step)
	s.p.NN.SetTime(cp.Time)
	return s.p.NN.SetExcitationMap(cp.Extra)
}
