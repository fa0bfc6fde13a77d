package shard

import (
	"math"
	"testing"

	"mlmd/internal/ferro"
	"mlmd/internal/md"
	"mlmd/internal/xsnn"
)

// newFerroFixture builds a PbTiO3 lattice with a nonuniform soft-mode
// pattern, GS/XS hamiltonians and a per-atom weight map.
func newFerroFixture(t testing.TB, nx, ny, nz int) (*md.System, *ferro.Lattice, *ferro.EffectiveHamiltonian, *ferro.EffectiveHamiltonian, []float64) {
	t.Helper()
	sys, lat, gs, xs, w, err := ferroFixture(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	return sys, lat, gs, xs, w
}

func ferroFixture(nx, ny, nz int) (*md.System, *ferro.Lattice, *ferro.EffectiveHamiltonian, *ferro.EffectiveHamiltonian, []float64, error) {
	sys, lat, err := ferro.NewLattice(nx, ny, nz)
	if err != nil {
		return nil, nil, nil, nil, nil, err
	}
	gs := ferro.DefaultEffHam(lat)
	xs := ferro.DefaultEffHam(lat)
	xs.SetExcitation(1.0)
	s0 := gs.S0()
	for c := 0; c < lat.NumCells(); c++ {
		cx, cy, cz := lat.CellCoords(c)
		// a domain-wall-ish texture plus small transverse ripple
		sz := s0
		if cx >= nx/2 {
			sz = -s0
		}
		lat.SetSoftMode(sys, c, 0.1*s0*math.Sin(float64(cy)), 0.05*s0*math.Cos(float64(cz)), sz)
	}
	w := make([]float64, sys.N)
	for i := range w {
		w[i] = 0.5 * (1 + math.Sin(float64(i)*0.37))
	}
	return sys, lat, gs, xs, w, nil
}

func newEffHamEngine(t testing.TB, sys *md.System, lat *ferro.Lattice, gs, xs *ferro.EffectiveHamiltonian, ranks int) *Engine {
	t.Helper()
	newFF, err := BlendEffHamFactory(lat, gs, xs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Config{
		Grid:   [3]int{ranks, 1, 1},
		Cutoff: 1.3 * ferro.LatticeConstant,
		Skin:   0.4 * ferro.LatticeConstant,
		NewFF:  newFF,
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestShardEffHamForcesBitwise: the sharded blended effective Hamiltonian
// reproduces xsnn.Blend over the two serial hamiltonians bit-for-bit, for
// several rank counts, including the excitation-weighted path.
func TestShardEffHamForcesBitwise(t *testing.T) {
	sys, lat, gs, xs, w := newFerroFixture(t, 8, 8, 2)

	blend := xsnn.NewBlend(gs, xs)
	blend.SetPerAtomWeights(w)
	ref := cloneSys(t, sys)
	peRef := blend.ComputeForces(ref)

	for _, p := range []int{1, 2, 4} {
		got := cloneSys(t, sys)
		eng := newEffHamEngine(t, got, lat, gs, xs, p)
		eng.SetPerAtomWeights(w)
		pe := eng.ComputeForces(got)
		for i := range ref.F {
			if got.F[i] != ref.F[i] {
				t.Fatalf("P=%d: F[%d] = %v, want %v (diff %g)", p, i, got.F[i], ref.F[i], got.F[i]-ref.F[i])
			}
		}
		if math.Abs(pe-peRef) > 1e-12*math.Abs(peRef) {
			t.Errorf("P=%d: PE %v, want %v", p, pe, peRef)
		}
	}
}

// TestBlendEffHamFactoryValidation covers the layout checks.
func TestBlendEffHamFactoryValidation(t *testing.T) {
	_, lat, gs, xs, _ := newFerroFixture(t, 4, 4, 2)
	if _, err := BlendEffHamFactory(lat, gs, xs); err != nil {
		t.Fatalf("canonical lattice rejected: %v", err)
	}
	_, lat2, _, _, _ := newFerroFixture(t, 4, 4, 2)
	if _, err := BlendEffHamFactory(lat2, gs, xs); err == nil {
		t.Error("accepted hamiltonians from a different lattice")
	}
}
