package shard

import (
	"math"
	"testing"

	"mlmd/internal/ferro"
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

// balancedShapes is the moving-cut-plane identity matrix: one slab, a face
// pair, the full octant, and the asymmetric 8-rank shape.
var balancedShapes = [][3]int{
	{2, 1, 1},
	{2, 2, 1},
	{2, 2, 2},
	{4, 2, 1},
}

// TestGridDecompositionIdentityMatrixBalancedLJ is the ISSUE 4 tentpole
// acceptance test: with dynamic boundary balancing enabled on a hot-spot
// density (deterministic CostOwnedAtoms signal, rebalance on every
// rebuild), the LJ trajectory stays bitwise identical to the static 1x1x1
// run for every grid shape — while the cut planes genuinely move and atoms
// migrate across the moved boundaries.
func TestGridDecompositionIdentityMatrixBalancedLJ(t *testing.T) {
	steps := matrixSteps(t)
	const dt = 2.0
	base := hotSpotSystem(t, 7, 1e-3, 1)
	cfg := Config{
		Cutoff: testCutoff, Skin: testSkin, NewFF: LJFactory(testEps, testSigma),
		Balance: true, BalanceEvery: 1, BalanceCost: CostOwnedAtoms,
	}

	ref, refRes, _ := runGridTrajectory(t, base, cfg, [3]int{1, 1, 1}, steps, dt, nil)
	for _, grid := range balancedShapes {
		got, res, eng := runGridTrajectory(t, base, cfg, grid, steps, dt, nil)
		assertBitwise(t, grid, ref, got)
		rebalances, maxShift := eng.BalanceStats()
		if rebalances < 2 {
			t.Errorf("grid %v: only %d rebalances in %d steps — balancing not exercised", grid, rebalances, steps)
		}
		if maxShift <= 0 {
			t.Errorf("grid %v: no cut plane ever moved on a hot-spot density", grid)
		}
		if maxShift > eng.currentHalo()+1e-12 {
			t.Errorf("grid %v: cut plane moved %g in one rebalance, above the halo %g", grid, maxShift, eng.currentHalo())
		}
		_, migrated := eng.Stats()
		if migrated == 0 {
			t.Errorf("grid %v: no atoms migrated despite moving boundaries", grid)
		}
		// Positions and velocities are bitwise; the scalar KE/PE reductions
		// are chunk-summed in rank-local order, so (as in the static
		// matrix) they agree to rounding, not bitwise.
		if math.Abs(res.KE-refRes.KE) > 1e-12*math.Abs(refRes.KE) {
			t.Errorf("grid %v: KE %v vs %v", grid, res.KE, refRes.KE)
		}
	}
}

// TestGridDecompositionIdentityMatrixBalancedEffHam runs the blended
// effective Hamiltonian with balancing driven by the production signal —
// measured per-rank step times, which differ run to run — and still
// requires bitwise identity to the static 1x1x1 trajectory: where the cut
// planes sit must never leak into the physics.
func TestGridDecompositionIdentityMatrixBalancedEffHam(t *testing.T) {
	steps := matrixSteps(t)
	const dt = 20.0
	sys, lat, gs, xs, w := newFerroFixture(t, 8, 8, 4)
	sys.InitVelocities(1e-3, 9)
	newFF, err := BlendEffHamFactory(lat, gs, xs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Cutoff:  1.3 * ferro.LatticeConstant,
		Skin:    0.15 * ferro.LatticeConstant,
		NewFF:   newFF,
		Balance: true, BalanceEvery: 1, BalanceCost: CostStepTime,
	}

	ref, _, _ := runGridTrajectory(t, sys, cfg, [3]int{1, 1, 1}, steps, dt, w)
	for _, grid := range balancedShapes {
		got, _, eng := runGridTrajectory(t, sys, cfg, grid, steps, dt, w)
		assertBitwise(t, grid, ref, got)
		if rebalances, _ := eng.BalanceStats(); rebalances < 1 {
			t.Errorf("grid %v: no rebalance fired", grid)
		}
	}
}

// TestGridDecompositionIdentityMatrixBalancedAllegro locks the same
// moving-boundary bitwise identity for the neural force field's two-phase
// payload path (step-time balancing signal, nondeterministic cut motion).
func TestGridDecompositionIdentityMatrixBalancedAllegro(t *testing.T) {
	steps := matrixSteps(t)
	const dt = 1.0
	sys, model := newAllegroFixture(t, 160, 12.0)
	sys.InitVelocities(3e-3, 4)
	cfg := Config{
		Cutoff: model.Spec.Cutoff, Skin: 0.3,
		NewFF:   AllegroFactory(model),
		Balance: true, BalanceEvery: 1, BalanceCost: CostStepTime,
	}

	ref, _, _ := runGridTrajectory(t, sys, cfg, [3]int{1, 1, 1}, steps, dt, nil)
	for _, grid := range balancedShapes {
		got, _, eng := runGridTrajectory(t, sys, cfg, grid, steps, dt, nil)
		assertBitwise(t, grid, ref, got)
		if rebalances, _ := eng.BalanceStats(); rebalances < 1 {
			t.Errorf("grid %v: no rebalance fired", grid)
		}
	}
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
