package shard

import (
	"testing"

	"mlmd/internal/md"
)

// hotSpotSystem is the shared load-balancing fixture: a Gaussian density
// hot spot off-center at (0.3, 0.3, 0.3) so every partitioned axis sees a
// strong load gradient under a uniform grid.
func hotSpotSystem(t testing.TB, cells int, kT float64, seed int64) *md.System {
	t.Helper()
	sys, err := md.NewGaussianHotSpotSystem(cells, 1.7, 50, 0.15, 0.18, [3]float64{0.3, 0.3, 0.3}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if kT > 0 {
		sys.InitVelocities(kT, seed)
	}
	return sys
}

// TestBalanceBoundedShiftAndConvergence is the ISSUE 4 property test: on a
// hot-spot density with the deterministic atom-count signal, (a) no cut
// plane ever moves more than the halo width in one rebalance, (b) the
// decomposition invariants (Validate: plane ordering, width >= halo,
// ownership, ghosts) hold after every block, and (c) the per-rank
// owned-atom counts converge toward the mean — the static >= 30 % imbalance
// shrinks substantially.
func TestBalanceBoundedShiftAndConvergence(t *testing.T) {
	blocks := 12
	if testing.Short() {
		blocks = 4
	}
	for _, grid := range [][3]int{{4, 1, 1}, {2, 2, 1}} {
		base := hotSpotSystem(t, 10, 2e-3, 3)
		// The static baseline: what a uniform grid owns forever.
		static, err := NewEngine(Config{
			Grid: grid, Cutoff: testCutoff, Skin: testSkin,
			NewFF: LJFactory(testEps, testSigma),
		}, base.Clone())
		if err != nil {
			t.Fatal(err)
		}
		initial := static.OwnedImbalance()
		static.Close()
		if initial < 1.3 {
			t.Fatalf("grid %v: static hot-spot imbalance %.3f — fixture too mild for a balancing test", grid, initial)
		}
		eng, err := NewEngine(Config{
			Grid: grid, Cutoff: testCutoff, Skin: testSkin,
			NewFF:   LJFactory(testEps, testSigma),
			Balance: true, BalanceEvery: 1, BalanceCost: CostOwnedAtoms,
		}, base)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		eng.Run(0, 2, 0, 0) // prime: scatter + first rebuild (+ first rebalance)
		for b := 0; b < blocks; b++ {
			eng.Run(25, 2, 0, 0)
			if err := eng.Validate(); err != nil {
				t.Fatalf("grid %v block %d: %v", grid, b, err)
			}
		}
		rebalances, maxShift := eng.BalanceStats()
		if rebalances < 3 {
			t.Errorf("grid %v: only %d rebalances over %d blocks", grid, rebalances, blocks)
		}
		if maxShift <= 0 || maxShift > eng.currentHalo()+1e-12 {
			t.Errorf("grid %v: per-rebalance max cut shift %g outside (0, halo=%g]", grid, maxShift, eng.currentHalo())
		}
		final := eng.OwnedImbalance()
		if !testing.Short() && final-1 > 0.5*(initial-1) {
			t.Errorf("grid %v: owned-atom imbalance went %.3f -> %.3f, want the excess at least halved", grid, initial, final)
		}
		t.Logf("grid %v: imbalance %.3f -> %.3f over %d rebalances (max shift %.3f, halo %.3f)",
			grid, initial, final, rebalances, maxShift, eng.currentHalo())
	}
}

// TestBalanceDisabledIsStatic: without Config.Balance the cut planes never
// move and the stats stay zero — balancing is strictly opt-in.
func TestBalanceDisabledIsStatic(t *testing.T) {
	base := hotSpotSystem(t, 7, 2e-3, 5)
	eng, err := NewEngine(Config{
		Grid: [3]int{4, 1, 1}, Cutoff: testCutoff, Skin: testSkin,
		NewFF: LJFactory(testEps, testSigma),
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	before := eng.CutPlanes(0)
	eng.Run(60, 2, 0, 0)
	rebalances, maxShift := eng.BalanceStats()
	if rebalances != 0 || maxShift != 0 {
		t.Errorf("static engine reports balance stats (%d, %g)", rebalances, maxShift)
	}
	for i, c := range eng.CutPlanes(0) {
		if c != before[i] {
			t.Errorf("static engine moved cut plane %d: %g -> %g", i, before[i], c)
		}
	}
	if eng.LoadImbalance() <= 0 {
		t.Error("load EWMA not tracked on a static run")
	}
}
