package shard

import "testing"

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
