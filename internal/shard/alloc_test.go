package shard

import (
	"fmt"
	"testing"
)

// TestShardSteadyStateAllocs: with no rebuild/migration events (a frozen
// lattice), neither the bridge force call nor a decomposed step allocates —
// the overlapped three-axis halo refresh, the collectives, the
// pool-parallel interior/boundary force passes, the dispatch machinery and
// the per-rank step-time load tracking all run on retained buffers. Pinned
// for the slab and for full 3-D grids, with boundary balancing both off and
// on (the balancer only acts inside rebuild events, so the steady-state
// step must stay clean either way).
func TestShardSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		grid    [3]int
		balance bool
	}{
		{[3]int{4, 1, 1}, false},
		{[3]int{2, 2, 1}, false},
		{[3]int{2, 2, 2}, false},
		{[3]int{2, 2, 1}, true},
	} {
		grid := tc.grid
		name := fmt.Sprintf("%dx%dx%d", grid[0], grid[1], grid[2])
		if tc.balance {
			name += "-balanced"
		}
		t.Run(name, func(t *testing.T) {
			base := fccLJSystem(t, 5, 0, 0)
			eng, err := NewEngine(Config{
				Grid: grid, Cutoff: testCutoff, Skin: testSkin,
				NewFF:   LJFactory(testEps, testSigma),
				Balance: tc.balance, BalanceEvery: 1,
			}, base)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Close)

			// Warm up: initial rebuild plus enough calls to reach steady
			// buffer sizes everywhere (comm pool, send/recv buffers, par
			// free lists).
			for i := 0; i < 5; i++ {
				eng.ComputeForces(base)
			}
			if n := testing.AllocsPerRun(50, func() { eng.ComputeForces(base) }); n != 0 {
				t.Errorf("bridge ComputeForces allocates %v allocs/op in steady state, want 0", n)
			}

			eng.Run(2, 2, 0, 0)
			if n := testing.AllocsPerRun(50, func() { eng.Run(1, 2, 0, 0) }); n != 0 {
				t.Errorf("decomposed step allocates %v allocs/op in steady state, want 0", n)
			}
		})
	}
}

// TestShardCheckpointedSteadyStateAllocs (ISSUE 6): enabling periodic
// checkpointing must not dirty the steady-state step. The checkpoint
// boundaries themselves (GatherAll + the writer) may allocate, but the
// steps between them run on the same retained buffers as an uninterrupted
// Run — 0 allocs/op.
func TestShardCheckpointedSteadyStateAllocs(t *testing.T) {
	base := fccLJSystem(t, 5, 0, 0)
	eng, err := NewEngine(Config{
		Grid: [3]int{2, 2, 1}, Cutoff: testCutoff, Skin: testSkin,
		NewFF: LJFactory(testEps, testSigma),
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	gathered := base.Clone()
	// Warm up through several checkpoint cycles so the gather machinery has
	// reached its steady buffer sizes too.
	for i := 0; i < 3; i++ {
		if _, err := eng.RunCheckpointed(4, 2, 0, 0, 2, gathered, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(50, func() { eng.Run(1, 2, 0, 0) }); n != 0 {
		t.Errorf("steady-state step allocates %v allocs/op between checkpoints, want 0", n)
	}
	// And another checkpoint cycle afterwards still works (the measurement
	// did not corrupt the cadence machinery).
	if _, err := eng.RunCheckpointed(2, 2, 0, 0, 2, gathered, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestShardAllegroSteadyStateAllocs pins the ISSUE 5 allocation fix: with
// every scratch buffer reused — the per-worker descriptor gather through
// par.Scratch slots of allegro.EvalScratch, the blocked-GEMM inference
// through reused block tapes, the two-phase payload halo and the
// canonical-order assembly — the Allegro steady-state sharded step
// allocates nothing, the same contract the engine machinery and the LJ
// field already carried. (Before the fix every per-atom inference
// allocated its ForwardTape/Backward buffers: ~10 allocations per atom per
// step.) TestShardAllegroBatchedSteadyStateAllocs pins the same contract
// at several inference blocks per rank.
func TestShardAllegroSteadyStateAllocs(t *testing.T) {
	// Cold gas (no velocities): no rebuild events, pure steady state.
	sys, model := newAllegroFixture(t, 160, 12.0)
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
		t.Errorf("Allegro bridge ComputeForces allocates %v allocs/op in steady state, want 0", n)
	}
	// dt = 0: the untrained model's forces would otherwise walk the gas
	// into rebuild events, which are allowed to allocate; the zero-dt step
	// still runs the full collective force evaluation.
	eng.Run(2, 0, 0, 0)
	if n := testing.AllocsPerRun(50, func() { eng.Run(1, 0, 0, 0) }); n != 0 {
		t.Errorf("Allegro decomposed step allocates %v allocs/op in steady state, want 0", n)
	}
}

// TestShardDualListSteadyStateAllocs: once the rebuild buffer has reached
// its bound, a stretch of steps that holds plain steps, prunes of the inner
// list and rebuilds of the outer one — migration, halo and both lists, at
// the grown buffer — allocates nothing. The crystal is hot enough that the
// buffer runs into its slab bound and rebuilds keep coming, and cool enough
// that most list renewals are still prunes.
func TestShardDualListSteadyStateAllocs(t *testing.T) {
	base := fccLJSystem(t, 6, 2e-3, 4)
	eng, err := NewEngine(Config{
		Grid: [3]int{2, 1, 1}, Cutoff: testCutoff, Skin: testSkin,
		NewFF: LJFactory(testEps, testSigma),
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	eng.Run(600, 2, 0, 0)
	rb0, _ := eng.Stats()
	pr0, buf := eng.ListStats()
	if buf <= testSkin {
		t.Fatalf("buffer %g never grew past the skin %g in the warm-up", buf, testSkin)
	}
	if n := testing.AllocsPerRun(20, func() { eng.Run(10, 2, 0, 0) }); n != 0 {
		t.Errorf("%v allocs per 10 steps, want 0", n)
	}
	rb, _ := eng.Stats()
	pr, _ := eng.ListStats()
	if rb == rb0 || pr == pr0 {
		t.Errorf("the measured steps held %d rebuilds and %d prunes, want both", rb-rb0, pr-pr0)
	}
	if err := eng.Validate(); err != nil {
		t.Fatal(err)
	}
}
