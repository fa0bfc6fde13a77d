package shard

import (
	"testing"

	"mlmd/internal/md"
)

// matrixSteps returns the trajectory length of the in-process identity
// rows: >= 300 steps with live migrations in the normal suite, shortened
// under -short (the race-detector CI lane) where the full table would
// dominate runtime.
func matrixSteps(short bool) int {
	if short {
		return 60
	}
	return 320
}

// runGridTrajectory runs an engine on grid over a clone of base and
// returns the gathered system.
func runGridTrajectory(t *testing.T, base *md.System, cfg Config, grid [3]int, steps int, dt float64) *md.System {
	t.Helper()
	sys := base.Clone()
	cfg.Grid = grid
	eng, err := NewEngine(cfg, sys)
	if err != nil {
		t.Fatalf("grid %v: %v", grid, err)
	}
	t.Cleanup(eng.Close)
	eng.Run(steps, dt, 0, 0)
	eng.Gather(sys)
	if err := eng.Validate(); err != nil {
		t.Fatalf("grid %v: %v", grid, err)
	}
	return sys
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
