package allegro

import (
	"math"
	"testing"

	"mlmd/internal/md"
	"mlmd/internal/precision"
)

// distortedLattice returns a small perovskite lattice with every cell's
// soft mode displaced so forces are nonzero and atom environments differ.
func distortedLattice(t testing.TB) *md.System {
	t.Helper()
	sys, lat, _ := smallLattice(t)
	for c := 0; c < lat.NumCells(); c++ {
		fc := float64(c)
		lat.SetSoftMode(sys, c, 0.02*math.Sin(fc+1), 0.015*math.Cos(fc), 0.03*math.Sin(2*fc))
	}
	return sys
}

// TestEvalBlockMatchesEvalAtom is the contract of the blocked path: at
// every chunk size, every row's energy and descriptor cotangent from
// evalBlock over gathered descriptor rows equal the per-atom EvalAtom
// tape's, bit for bit, for every species of the lattice. The global force
// path and the sharded AllegroFF both assemble forces from these rows, so
// the chunking of the MLP GEMMs never shows in a force.
func TestEvalBlockMatchesEvalAtom(t *testing.T) {
	sys := distortedLattice(t)
	m, err := NewModel(testSpec(), []int{10, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.ensureNeighbors(sys)
	n, dim := sys.N, m.Spec.Dim()
	vlen := m.Spec.NSpecies * m.Spec.NRadial * 3
	cs := m.Spec.centers()
	var scr EvalScratch
	eRef := make([]float64, n)
	gRef := make([]float64, n*dim)
	desc := make([]float64, n*dim)
	vec := make([]float64, vlen)
	species := map[int]bool{}
	for i := 0; i < n; i++ {
		row := m.nl.Row(i)
		rad := make([]float64, len(row)*m.Spec.RadialLen())
		eRef[i], _ = m.EvalAtom(sys, i, row, cs, &scr, gRef[i*dim:(i+1)*dim], vec, rad)
		m.gatherAtom(sys, i, row, cs, &scr, desc[i*dim:(i+1)*dim], vec, rad)
		species[sys.Type[i]] = true
	}
	if len(species) != m.Spec.NSpecies {
		t.Fatalf("lattice holds %d of %d species", len(species), m.Spec.NSpecies)
	}
	for _, chunk := range []int{1, 7, n} {
		m.BlockSize = chunk
		var be blockEval
		eAtom := make([]float64, n)
		gD := make([]float64, n*dim)
		m.evalBlock(sys.Type, 0, n, desc, &be, eAtom, gD, dim)
		for i := 0; i < n; i++ {
			if math.Float64bits(eAtom[i]) != math.Float64bits(eRef[i]) {
				t.Fatalf("chunk %d: atom %d (species %d) energy %v, EvalAtom %v", chunk, i, sys.Type[i], eAtom[i], eRef[i])
			}
			for k := i * dim; k < (i+1)*dim; k++ {
				if math.Float64bits(gD[k]) != math.Float64bits(gRef[k]) {
					t.Fatalf("chunk %d: atom %d (species %d) gD[%d] = %v, EvalAtom %v", chunk, i, sys.Type[i], k-i*dim, gD[k], gRef[k])
				}
			}
		}
	}
}

// TestBatchedMixedTracksFloat64: the GEMMMixed float32 variant is not
// bitwise-comparable, but it must track the float64 result to float32-level
// accuracy for both supported compute modes.
func TestBatchedMixedTracksFloat64(t *testing.T) {
	sys := distortedLattice(t)
	m, err := NewModel(testSpec(), []int{10, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	eRef := m.ComputeForces(sys)
	fRef := append([]float64(nil), sys.F...)
	var fScale float64 = 1
	for _, v := range fRef {
		if a := math.Abs(v); a > fScale {
			fScale = a
		}
	}
	for _, mode := range []precision.Mode{precision.ModeFP32, precision.ModeBF16x3} {
		m.Mode, m.MixedMode = EvalBatchedMixed, mode
		e := m.ComputeForces(sys)
		if math.Abs(e-eRef) > 1e-4*math.Max(1, math.Abs(eRef)) {
			t.Errorf("%v: mixed energy %v strayed from %v", mode, e, eRef)
		}
		for k := range fRef {
			if math.Abs(sys.F[k]-fRef[k]) > 1e-3*fScale {
				t.Fatalf("%v: mixed F[%d] = %v strayed from %v", mode, k, sys.F[k], fRef[k])
			}
		}
	}
}

// TestBatchedComputeForcesSteadyStateAllocs: after warmup, the global
// force path must not allocate — block tapes, gather buffers, and
// GEMM pool bindings are all reused.
func TestBatchedComputeForcesSteadyStateAllocs(t *testing.T) {
	sys := distortedLattice(t)
	m, err := NewModel(testSpec(), []int{10, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.BlockSize = 16
	m.ComputeForces(sys)
	m.ComputeForces(sys)
	if n := testing.AllocsPerRun(20, func() { m.ComputeForces(sys) }); n != 0 {
		t.Errorf("batched ComputeForces allocates %.1f/op in steady state, want 0", n)
	}
}

// TestEvalModeString covers EvalMode's names.
func TestEvalModeString(t *testing.T) {
	for _, tc := range []struct {
		mode EvalMode
		want string
	}{
		{EvalBatched, "batched"}, {EvalBatchedMixed, "batched-mixed"},
		{EvalMode(9), "EvalMode(9)"},
	} {
		if got := tc.mode.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", int(tc.mode), got, tc.want)
		}
	}
}
