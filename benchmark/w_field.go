package main

import (
	"fmt"
	"math"

	"mlmd/internal/cluster"
	"mlmd/internal/core"
	"mlmd/internal/grid"
	"mlmd/internal/maxwell"
	"mlmd/internal/perf"
	"mlmd/internal/shard"
	"mlmd/internal/shard/halo"
	"mlmd/internal/units"
)

var fieldFDTD = &workload{
	name: "field.fdtd",
	why:  "64^3 driven Yee box on the grid engine, 2 ranks: memory-bound stencil plus grid halo, no neighbor lists, no GEMM",
	w:    10, setupReps: 11, verifyDispatches: 20, traceDispatchesPerSecond: 15,
	size: func(tiny bool) string { return fmt.Sprintf("%d cells", cube(fdtdCells(tiny))) },
	open: openFDTD,
}

func fdtdCells(tiny bool) int {
	if tiny {
		return 12
	}
	return 64
}

// fdtdInstance is a sharded maxwell.Sim3D run on shard.GridEngine (the
// driven Yee box of BENCH_PR9, noise-seeded from the workload seed).
type fdtdInstance struct {
	tr         *tracer
	eng        *shard.GridEngine
	cells      int
	e, b       []float64
	dispatches int64
	halo0      int64
	comm0      float64
}

func openFDTD(p params, tr *tracer, serial bool) (instance, error) {
	cells := fdtdCells(p.tiny)
	h := [3]float64{1, 1, 1}
	dt := 0.9 * h[0] / math.Sqrt(3) / units.LightSpeed
	grid := benchGrid
	if serial {
		grid = [3]int{1, 1, 1}
	}
	sp := tr.begin("new_engine")
	eng, err := shard.NewGridEngine(shard.GridConfig{
		Grid: grid, N: [3]int{cells, cells, cells}, Ghost: 1,
		Net: cluster.Slingshot11(),
		NewWork: func(rank int, d halo.Domain) (shard.GridWorkload, error) {
			sim, err := maxwell.NewSim3D(d, maxwell.Sim3DConfig{
				H: h, Dt: dt,
				Drive:     maxwell.NewPulse(1e-2, 0.057, 0.02, 0.02),
				Source:    [3]int{cells / 2, cells / 2, cells / 2},
				SourceAmp: 1,
			})
			if err != nil {
				return nil, err
			}
			sim.InitRandom(uint64(p.seed), 1e-3)
			return sim, nil
		},
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("prime")
	_, err = eng.Run(2) // first touch and the halo frame pools
	tr.end(sp)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &fdtdInstance{tr: tr, eng: eng, cells: cells,
		halo0: eng.HaloBytes(), comm0: eng.ModeledCommSeconds()}, nil
}

func (in *fdtdInstance) dispatch() error {
	in.dispatches++
	obs, err := in.eng.Run(fieldFDTD.w)
	if err != nil {
		return err
	}
	return finite("field energy sums", obs...)
}

func (in *fdtdInstance) digest() (uint64, error) {
	if in.e == nil {
		in.e = make([]float64, 3*cube(in.cells))
		in.b = make([]float64, 3*cube(in.cells))
	}
	sp := in.tr.begin("gather_all")
	err := in.eng.GatherField(0, in.e)
	if err == nil {
		err = in.eng.GatherField(1, in.b)
	}
	in.tr.end(sp)
	if err != nil {
		return 0, err
	}
	return digestFloats(digestFloats(0, in.e), in.b), nil
}

func (in *fdtdInstance) check() error { return in.eng.Err() }

func (in *fdtdInstance) layer(rs runStats) map[string]float64 {
	steps := float64(in.dispatches * int64(fieldFDTD.w))
	return map[string]float64{
		"maxwell.cell_updates_per_s":      float64(cube(in.cells)) * rs.rate,
		"halo.bytes_per_step":             float64(in.eng.HaloBytes()-in.halo0) / steps,
		"cluster.modeled_comm_s_per_step": (in.eng.ModeledCommSeconds() - in.comm0) / steps,
		// Computed, not measured: E and B (3 components each) are read
		// and written once per step, ignoring cache misses and ghosts.
		"maxwell.bytes_per_step_computed": float64(2 * 2 * 3 * 8 * cube(in.cells)),
	}
}

func (in *fdtdInstance) close() { in.eng.Close() }

var qdDCMESH = &workload{
	name: "qd.dcmesh",
	why:  "DC-MESH on a 16^3 mesh, 8 domains x 8 orbitals, 40 QD sub-steps per MD step with the FP64 scissor: kin_prop + CGEMM",
	w:    1, setupReps: 1, verifyDispatches: 2, traceDispatchesPerSecond: 2,
	size: func(tiny bool) string {
		c := dcmeshConfig(params{tiny: tiny})
		return fmt.Sprintf("%d^3 mesh, %d domains, %d orbitals, NQD %d", c.Global.Nx, c.Dx*c.Dy*c.Dz, c.Norb, c.NQD)
	},
	open: openDCMESH,
}

// The split-operator propagation is unitary, so orbital norms may drift
// only by round-off (normDriftMax). The perturbative scissor correction
// 1 - i*delta*P is unitary to first order only: each QD sub-step may add
// up to |delta|^2, which the bound allows for so it does not depend on
// how many steps a fast machine fits into the run.
const (
	normDriftMax = 1e-10
	scissorDelta = 1e-6
)

func dcmeshConfig(p params) core.DCMESHConfig {
	c := core.DefaultDCMESHConfig()
	c.Norb = 8
	c.NonlocalDelta = complex(0, scissorDelta)
	c.Seed = p.seed
	if p.tiny {
		c.Global = grid.NewCubic(8, 0.8)
		c.Dx, c.Dy, c.Dz = 2, 1, 1
		c.Norb = 4
		c.NQD = 4
		c.GroundIters = 20
	}
	return c
}

type dcmeshInstance struct {
	m          *core.DCMESH
	dispatches int64
}

func openDCMESH(p params, tr *tracer, serial bool) (instance, error) {
	if serial {
		return nil, nil // no decomposition-free reference; verified by norm drift
	}
	sp := tr.begin("new_engine")
	m, err := core.NewDCMESH(dcmeshConfig(p))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &dcmeshInstance{m: m}, nil
}

func (in *dcmeshInstance) dispatch() error {
	in.dispatches++
	nexc := in.m.MDStep()
	if err := finite("n_exc", nexc...); err != nil {
		return err
	}
	qdSteps := float64(in.dispatches * int64(in.m.Cfg.NQD))
	bound := normDriftMax + 2*scissorDelta*scissorDelta*qdSteps
	if d := in.m.NormDrift(); !(d < bound) {
		return fmt.Errorf("orbital norm drift %g >= %g", d, bound)
	}
	return nil
}

func (in *dcmeshInstance) digest() (uint64, error) {
	var crc uint64
	var psi []float64
	for _, d := range in.m.Domains {
		psi = psi[:0]
		for _, z := range d.Psi.Data {
			psi = append(psi, real(z), imag(z))
		}
		crc = digestFloats(digestFloats(crc, psi), d.SH.F)
	}
	return crc, nil
}

func (in *dcmeshInstance) check() error { return nil }

// layer reports the paper's time-to-solution from the run itself: wall
// seconds per QD sub-step (all domains) per electron.
func (in *dcmeshInstance) layer(rs runStats) map[string]float64 {
	cfg := in.m.Cfg
	qdStep := rs.stepMsP50 / 1e3 / float64(cfg.NQD)
	return map[string]float64{
		"core.t2s_s_per_electron_qdstep": perf.T2SElectron(qdStep, dcmeshElectrons(cfg.Norb, len(in.m.Domains))),
	}
}

func (in *dcmeshInstance) close() {}
