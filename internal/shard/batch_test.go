package shard

import (
	"math"
	"testing"
)

// TestGridDecompositionIdentityMatrixAllegroBatched runs the Allegro
// identity matrix at BlockSize 64, which splits each rank's blocked-GEMM
// inference into several chunks per species (on the 1-rank grid too):
// sharded trajectories on the 1-rank grid and on multi-rank grids driving
// the split-phase overlap are bitwise identical to the one-block 1-rank
// reference of TestGridDecompositionIdentityMatrixAllegro. Block size
// changes neither the payloads nor the canonical assembly, across
// decompositions, rebuilds, and migrations.
func TestGridDecompositionIdentityMatrixAllegroBatched(t *testing.T) {
	steps := matrixSteps(t)
	if !testing.Short() {
		steps = 310
	}
	const dt = 1.0
	sys, model := newAllegroFixture(t, 160, 12.0)
	sys.InitVelocities(3e-3, 4)
	cfg := Config{
		Cutoff: model.Spec.Cutoff, Skin: 0.3,
		NewFF: AllegroFactory(model),
	}
	// Reference: one inference block per species, single rank.
	ref, refRes, _ := runGridTrajectory(t, sys, cfg, [3]int{1, 1, 1}, steps, dt, nil)

	model.BlockSize = 64
	migratedTotal := int64(0)
	for _, grid := range [][3]int{{1, 1, 1}, {2, 2, 1}, {2, 2, 2}} {
		got, res, eng := runGridTrajectory(t, sys, cfg, grid, steps, dt, nil)
		assertBitwise(t, grid, ref, got)
		_, migrated := eng.Stats()
		migratedTotal += migrated
		if math.Abs(res.PE-refRes.PE) > 1e-12*math.Abs(refRes.PE) {
			t.Errorf("block 64 grid %v: PE %v vs %v", grid, res.PE, refRes.PE)
		}
	}
	if !testing.Short() && migratedTotal == 0 {
		t.Error("no migrations across the block-64 matrix — gas too cold")
	}
}

// TestShardAllegroBatchedSteadyStateAllocs: at several inference blocks per
// rank (BlockSize 64), the sharded step — pool-parallel descriptor gather,
// blocked GEMM inference through reused block tapes, payload halo,
// canonical assembly — allocates nothing in steady state, including
// between checkpoint boundaries, the same contract
// TestShardAllegroSteadyStateAllocs pins at one block per rank.
func TestShardAllegroBatchedSteadyStateAllocs(t *testing.T) {
	sys, model := newAllegroFixture(t, 160, 12.0)
	model.BlockSize = 64
	eng, err := NewEngine(Config{
		Grid: [3]int{2, 1, 1}, Cutoff: model.Spec.Cutoff, Skin: 0.3,
		NewFF: AllegroFactory(model),
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	for i := 0; i < 5; i++ {
		eng.ComputeForces(sys)
	}
	if n := testing.AllocsPerRun(50, func() { eng.ComputeForces(sys) }); n != 0 {
		t.Errorf("block-64 Allegro bridge ComputeForces allocates %v allocs/op in steady state, want 0", n)
	}
	// dt = 0 keeps the gas frozen: no rebuild events, pure steady state.
	eng.Run(2, 0, 0, 0)
	if n := testing.AllocsPerRun(50, func() { eng.Run(1, 0, 0, 0) }); n != 0 {
		t.Errorf("block-64 Allegro decomposed step allocates %v allocs/op in steady state, want 0", n)
	}
	// Steps between checkpoint boundaries stay clean too (the boundaries
	// themselves may allocate in the gather/writer).
	gathered := sys.Clone()
	for i := 0; i < 3; i++ {
		if _, err := eng.RunCheckpointed(4, 0, 0, 0, 2, gathered, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, func() { eng.Run(1, 0, 0, 0) }); n != 0 {
		t.Errorf("block-64 Allegro step allocates %v allocs/op between checkpoints, want 0", n)
	}
}
