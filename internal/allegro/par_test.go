package allegro

import (
	"math"
	"testing"

	"mlmd/internal/par"
)

// TestForcesRunToRunDeterministic: repeated force evaluations are bitwise
// identical, and so are evaluations at different worker counts — the
// assembly sums each atom's terms in its row's fixed order, whichever
// worker runs it and however the pool splits the atoms.
func TestForcesRunToRunDeterministic(t *testing.T) {
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	sys, _, _ := smallLattice(t)
	m, err := NewModel(testSpec(), []int{8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	e0 := m.ComputeForces(sys)
	f0 := append([]float64(nil), sys.F...)
	for _, workers := range []int{1, 2, 4} {
		par.SetWorkers(workers)
		for rep := 0; rep < 5; rep++ {
			e := m.ComputeForces(sys)
			if math.Float64bits(e) != math.Float64bits(e0) {
				t.Fatalf("workers %d rep %d: energy %v != 1-worker run %v", workers, rep, e, e0)
			}
			for k := range f0 {
				if math.Float64bits(sys.F[k]) != math.Float64bits(f0[k]) {
					t.Fatalf("workers %d rep %d: F[%d] = %v != 1-worker run %v", workers, rep, k, sys.F[k], f0[k])
				}
			}
		}
	}
}
