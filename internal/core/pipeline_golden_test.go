package core

import (
	"math"
	"runtime"
	"testing"

	"mlmd/internal/grid"
	"mlmd/internal/maxwell"
	"mlmd/internal/units"
)

// smallPipelineConfig is a textured Fig. 3 run small enough for tier-1: a
// 1x1 skyrmion superlattice on an 8x8x2 lattice in the 50 K bath, a two-step
// pulse over 2x2x1 DC-MESH domains, then 40 response steps.
func smallPipelineConfig() PipelineConfig {
	cfg := DefaultPipelineConfig()
	cfg.LatNx, cfg.LatNy, cfg.LatNz = 8, 8, 2
	cfg.SkyGrid, cfg.SkyRadius = 1, 2
	cfg.DCMESH.Global = grid.NewCubic(8, 0.8)
	cfg.DCMESH.Dx, cfg.DCMESH.Dy, cfg.DCMESH.Dz = 2, 2, 1
	cfg.DCMESH.Norb = 2
	cfg.DCMESH.NQD = 10
	cfg.DCMESH.GroundIters = 100
	cfg.DCMESH.Pulse = maxwell.NewPulse(0.4, units.Hartree(3.0), 0.5, 0.5)
	cfg.ResponseSteps = 40
	return cfg
}

// TestPipelineStateGolden pins the bits of a whole textured Pipeline.Run
// with the thermal bath on: the CRC64 of the final lattice X, V and F and
// of the excitation map. Drawn velocities, the pre-pulse hold, the
// Langevin bath, the pulse's per-domain excitation and the carrier decay
// all feed it. Like TestDCMESHGolden it is keyed by which amd64 stdlib exp
// block this process runs, since the pulse envelope is a math.Exp.
func TestPipelineStateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden bits are amd64's")
	}
	const probe = -1.5937854207655149
	golden := map[uint64]uint64{
		0x3fca00fcb8a02a25: 0xb6e30992b5a55479, // fused exp
		0x3fca00fcb8a02a26: 0x4362a56d02efb506, // unfused exp
	}[math.Float64bits(math.Exp(probe))]
	if golden == 0 {
		t.Skip("math.Exp is neither amd64 stdlib block")
	}
	p, err := NewPipeline(smallPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NN.StateCRC(); got != golden {
		t.Errorf("CRC64 of the final lattice state %#016x, golden %#016x (Q %+.2f -> %+.2f, Pz %.4f -> %.4f)",
			got, golden, res.ChargeBefore, res.ChargeFinal, res.MeanPzBefore, res.MeanPzFinal)
	}
}
