package core

import (
	"math"
	"testing"

	"mlmd/internal/ferro"
	"mlmd/internal/md"
	"mlmd/internal/shard"
)

// newWallFixture builds a PbTiO3 lattice holding a domain wall with a
// small transverse ripple, and its GS/XS hamiltonians.
func newWallFixture(t testing.TB, nx, ny, nz int) (*md.System, *ferro.Lattice, *ferro.EffectiveHamiltonian, *ferro.EffectiveHamiltonian) {
	t.Helper()
	sys, lat, err := ferro.NewLattice(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	gs := ferro.DefaultEffHam(lat)
	xs := ferro.DefaultEffHam(lat)
	xs.SetExcitation(1.0)
	s0 := gs.S0()
	for c := 0; c < lat.NumCells(); c++ {
		cx, cy, cz := lat.CellCoords(c)
		sz := s0
		if cx >= nx/2 {
			sz = -s0
		}
		lat.SetSoftMode(sys, c, 0.1*s0*math.Sin(float64(cy)), 0.05*s0*math.Cos(float64(cz)), sz)
	}
	return sys, lat, gs, xs
}

// TestShardXSNNQMDTrajectoryBitwise runs the full XS-NNQMD module — Langevin
// bath, carrier decay, topological analysis — sharded vs unsharded. The
// trajectories and the topological charge must agree bitwise.
func TestShardXSNNQMDTrajectoryBitwise(t *testing.T) {
	const nx, ny, nz = 8, 8, 2
	const seed = 11

	run := func(ranks int) (*md.System, float64, float64) {
		sys, lat, gs, xs := newWallFixture(t, nx, ny, nz)
		nn, err := NewXSNNQMD(sys, lat, gs, xs, 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ranks > 0 {
			newFF, err := shard.BlendEffHamFactory(lat, gs, xs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := shard.Config{Grid: [3]int{ranks, 1, 1}, NewFF: newFF}
			cfg.Cutoff, cfg.Skin = latticeHalo()
			eng, err := shard.NewEngine(cfg, sys)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Close)
			nn.SetForceField(eng)
		}
		nn.KT, nn.Gamma = 1e-4, 1e-3
		nn.SetUniformExcitation(0.3)
		nn.CarrierLifetime = 1000
		var pe float64
		for block := 0; block < 3; block++ {
			pe = nn.Step(30)
		}
		return sys, nn.TopologicalCharge(), pe
	}

	refSys, refQ, _ := run(0)
	for _, p := range []int{1, 2, 4} {
		gotSys, gotQ, _ := run(p)
		for i := range refSys.X {
			if gotSys.X[i] != refSys.X[i] {
				t.Fatalf("P=%d: X[%d] = %v, want %v (diff %g)", p, i, gotSys.X[i], refSys.X[i], gotSys.X[i]-refSys.X[i])
			}
			if gotSys.V[i] != refSys.V[i] {
				t.Fatalf("P=%d: V[%d] = %v, want %v", p, i, gotSys.V[i], refSys.V[i])
			}
		}
		if gotQ != refQ {
			t.Errorf("P=%d: topological charge %v, want %v", p, gotQ, refQ)
		}
	}
}
