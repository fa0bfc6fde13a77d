package shard

import (
	"math"
	"testing"

	"mlmd/internal/ferro"
	"mlmd/internal/md"
)

// gridShapes is the cross-decomposition identity matrix of ISSUE 3: every
// axis alone, every face pair, the full octant, and an asymmetric 8-rank
// shape. Shape {1,1,1} doubles as the reference run.
var gridShapes = [][3]int{
	{1, 1, 1},
	{2, 1, 1},
	{1, 2, 1},
	{1, 1, 2},
	{2, 2, 1},
	{2, 1, 2},
	{2, 2, 2},
	{4, 2, 1},
}

// matrixSteps returns the trajectory length of the identity matrix: >= 300
// steps with live migrations in the normal suite, shortened under -short
// (the race-detector CI lane) where the full matrix would dominate runtime.
func matrixSteps(t *testing.T) int {
	if testing.Short() {
		return 60
	}
	return 320
}

// runGridTrajectory builds an engine over a clone of base, runs it, and
// returns the gathered system plus its stats.
func runGridTrajectory(t *testing.T, base *md.System, cfg Config, grid [3]int, steps int, dt float64, w []float64) (*md.System, RunResult, *Engine) {
	t.Helper()
	sys := base.Clone()
	cfg.Grid = grid
	eng, err := NewEngine(cfg, sys)
	if err != nil {
		t.Fatalf("grid %v: %v", grid, err)
	}
	t.Cleanup(eng.Close)
	if w != nil {
		eng.SetPerAtomWeights(w)
	}
	res := eng.Run(steps, dt, 0, 0)
	eng.Gather(sys)
	if err := eng.Validate(); err != nil {
		t.Fatalf("grid %v: %v", grid, err)
	}
	return sys, res, eng
}

// interiorAtoms sums the hosted ranks' interior atom counts: the owned
// atoms whose forces the last step evaluated while the halo exchange was in
// flight. The 1×1×1 reference has no partitioned axis and so no split,
// which makes a shape's bitwise match the check that the split moves no
// bit — provided some shape actually split.
func interiorAtoms(eng *Engine) int {
	n := 0
	for _, rs := range eng.local {
		n += rs.nInt
	}
	return n
}

// assertSplitRan fails the matrix when no shape ran the interior/boundary
// split.
func assertSplitRan(t *testing.T, interior map[[3]int]int) {
	t.Helper()
	for _, n := range interior {
		if n > 0 {
			return
		}
	}
	t.Errorf("no grid shape has interior atoms (%v): the comm/compute split never ran", interior)
}

// assertBitwise compares a shape's gathered trajectory endpoint against the
// 1-rank reference, coordinate by coordinate, at tolerance zero.
func assertBitwise(t *testing.T, grid [3]int, ref, got *md.System) {
	t.Helper()
	for i := range ref.X {
		if got.X[i] != ref.X[i] {
			t.Fatalf("grid %dx%dx%d: X[%d] = %v, want %v (diff %g)",
				grid[0], grid[1], grid[2], i, got.X[i], ref.X[i], got.X[i]-ref.X[i])
		}
		if got.V[i] != ref.V[i] {
			t.Fatalf("grid %dx%dx%d: V[%d] = %v, want %v (diff %g)",
				grid[0], grid[1], grid[2], i, got.V[i], ref.V[i], got.V[i]-ref.V[i])
		}
	}
}

// TestGridDecompositionIdentityMatrixLJ is the tentpole acceptance test:
// for every grid shape in the matrix, the multi-rank LJ trajectory — with
// live per-axis migrations and halo rebuilds — is bitwise identical to the
// 1-rank run.
func TestGridDecompositionIdentityMatrixLJ(t *testing.T) {
	steps := matrixSteps(t)
	const dt = 2.0
	base := fccLJSystem(t, 7, 1e-3, 1)
	cfg := Config{Cutoff: testCutoff, Skin: testSkin, NewFF: LJFactory(testEps, testSigma)}

	ref, refRes, _ := runGridTrajectory(t, base, cfg, [3]int{1, 1, 1}, steps, dt, nil)
	interior := map[[3]int]int{}
	for _, grid := range gridShapes[1:] {
		got, res, eng := runGridTrajectory(t, base, cfg, grid, steps, dt, nil)
		assertBitwise(t, grid, ref, got)
		interior[grid] = interiorAtoms(eng)
		rebuilds, migrated := eng.Stats()
		if !testing.Short() {
			if rebuilds < 5 {
				t.Errorf("grid %v: only %d rebuilds in %d steps — event path not exercised", grid, rebuilds, steps)
			}
			if migrated == 0 {
				t.Errorf("grid %v: no atoms migrated across ranks", grid)
			}
		}
		if math.Abs(res.KE-refRes.KE) > 1e-12*math.Abs(refRes.KE) {
			t.Errorf("grid %v: KE %v vs %v", grid, res.KE, refRes.KE)
		}
		if math.Abs(res.PE-refRes.PE) > 1e-9*math.Abs(refRes.PE) {
			t.Errorf("grid %v: PE %v vs %v", grid, res.PE, refRes.PE)
		}
	}
	assertSplitRan(t, interior)
}

// TestGridDecompositionIdentityMatrixEffHam runs the blended effective
// Hamiltonian (with a nonuniform per-atom excitation weight map) over the
// matrix: a warm 8×8×4 PbTiO3 lattice whose boundary-plane atoms vibrate
// across the subdomain faces.
func TestGridDecompositionIdentityMatrixEffHam(t *testing.T) {
	steps := matrixSteps(t)
	const dt = 20.0
	sys, lat, gs, xs, w := newFerroFixture(t, 8, 8, 4)
	sys.InitVelocities(1e-3, 9)
	newFF, err := BlendEffHamFactory(lat, gs, xs)
	if err != nil {
		t.Fatal(err)
	}
	// The tight skin (0.15 a) makes the warm lattice's boundary-plane
	// vibrations trigger real rebuilds and migrations within the run.
	cfg := Config{
		Cutoff: 1.3 * ferro.LatticeConstant,
		Skin:   0.15 * ferro.LatticeConstant,
		NewFF:  newFF,
	}

	ref, refRes, _ := runGridTrajectory(t, sys, cfg, [3]int{1, 1, 1}, steps, dt, w)
	migratedTotal := int64(0)
	interior := map[[3]int]int{}
	for _, grid := range gridShapes[1:] {
		got, res, eng := runGridTrajectory(t, sys, cfg, grid, steps, dt, w)
		assertBitwise(t, grid, ref, got)
		interior[grid] = interiorAtoms(eng)
		_, migrated := eng.Stats()
		migratedTotal += migrated
		if math.Abs(res.PE-refRes.PE) > 1e-12*math.Abs(refRes.PE) {
			t.Errorf("grid %v: PE %v vs %v", grid, res.PE, refRes.PE)
		}
	}
	if !testing.Short() && migratedTotal == 0 {
		t.Error("no EffHam migrations across the whole matrix — fixture too cold")
	}
	assertSplitRan(t, interior)
}

// TestGridDecompositionIdentityMatrixAllegro locks the ISSUE 3 Allegro fix:
// with the canonical two-phase assembly (payload halo + ascending-gid
// chains), the neural force field's multi-rank trajectories are bitwise
// identical to the 1-rank run for every grid shape — the PR 2 reverse-halo
// path only matched to summation-order rounding.
func TestGridDecompositionIdentityMatrixAllegro(t *testing.T) {
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

	ref, refRes, _ := runGridTrajectory(t, sys, cfg, [3]int{1, 1, 1}, steps, dt, nil)
	migratedTotal := int64(0)
	interior := map[[3]int]int{}
	for _, grid := range gridShapes[1:] {
		got, res, eng := runGridTrajectory(t, sys, cfg, grid, steps, dt, nil)
		assertBitwise(t, grid, ref, got)
		interior[grid] = interiorAtoms(eng)
		_, migrated := eng.Stats()
		migratedTotal += migrated
		if math.Abs(res.PE-refRes.PE) > 1e-12*math.Abs(refRes.PE) {
			t.Errorf("grid %v: PE %v vs %v", grid, res.PE, refRes.PE)
		}
	}
	if !testing.Short() && migratedTotal == 0 {
		t.Error("no Allegro migrations across the whole matrix — gas too cold")
	}
	assertSplitRan(t, interior)
}

// TestGridShapeValidation covers the grid-specific constructor errors.
func TestGridShapeValidation(t *testing.T) {
	sys := fccLJSystem(t, 4, 0, 0)
	cfg := Config{Cutoff: testCutoff, Skin: testSkin, NewFF: LJFactory(testEps, testSigma)}
	// 4 cells · 1.7 spacing = 6.8 per axis; halo 1.8 forbids more than 3
	// ranks along any axis.
	cfg.Grid = [3]int{1, 4, 1}
	if _, err := NewEngine(cfg, sys); err == nil {
		t.Error("accepted an axis subdomain narrower than the halo")
	}
	cfg.Grid = [3]int{2, 0, 1}
	if _, err := NewEngine(cfg, sys); err == nil {
		t.Error("accepted a zero axis count")
	}
	cfg.Grid = [3]int{2, 2, 1}
	eng, err := NewEngine(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Ranks() != 4 || eng.Grid() != [3]int{2, 2, 1} {
		t.Errorf("grid engine reports ranks %d grid %v", eng.Ranks(), eng.Grid())
	}
}

// TestParseGrid covers the flag-plumbing helper.
func TestParseGrid(t *testing.T) {
	g, err := ParseGrid("2x2x1")
	if err != nil || g != [3]int{2, 2, 1} {
		t.Fatalf("ParseGrid(2x2x1) = %v, %v", g, err)
	}
	g, err = ParseGrid(" 4X2x1 ")
	if err != nil || g != [3]int{4, 2, 1} {
		t.Fatalf("ParseGrid( 4X2x1 ) = %v, %v", g, err)
	}
	for _, bad := range []string{"", "2x2", "2x2x2x2", "0x1x1", "-1x1x1", "axbxc"} {
		if _, err := ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) accepted", bad)
		}
	}
}
