package core

import (
	"math"
	"testing"

	"mlmd/internal/ferro"
	"mlmd/internal/grid"
	"mlmd/internal/md"
	"mlmd/internal/par"
)

// xsTrajectory runs a small XS-NNQMD simulation and returns the final
// positions, velocities and topological charge.
func xsTrajectory(t *testing.T, seed int64) ([]float64, []float64, float64) {
	t.Helper()
	sys, lat, err := ferro.NewLattice(8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	gs := ferro.DefaultEffHam(lat)
	xs := ferro.DefaultEffHam(lat)
	xs.SetExcitation(1.0)
	s0 := gs.S0()
	for c := 0; c < lat.NumCells(); c++ {
		lat.SetSoftMode(sys, c, 0, 0, s0)
	}
	nn, err := NewXSNNQMD(sys, lat, gs, xs, 20, seed)
	if err != nil {
		t.Fatal(err)
	}
	nn.KT, nn.Gamma = 1e-4, 1e-3
	nn.SetUniformExcitation(0.4)
	nn.CarrierLifetime = 800
	nn.Step(60)
	x := append([]float64(nil), sys.X...)
	v := append([]float64(nil), sys.V...)
	return x, v, nn.TopologicalCharge()
}

// TestXSNNQMDDeterministicAcrossRuns: same seed ⇒ bitwise-identical
// trajectory and topological charge.
func TestXSNNQMDDeterministicAcrossRuns(t *testing.T) {
	x1, v1, q1 := xsTrajectory(t, 42)
	x2, v2, q2 := xsTrajectory(t, 42)
	for i := range x1 {
		if x1[i] != x2[i] || v1[i] != v2[i] {
			t.Fatalf("trajectory diverged at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
	if q1 != q2 {
		t.Fatalf("topological charge %v vs %v", q1, q2)
	}
	// A different seed must actually change the trajectory (the Langevin
	// bath is on), or the determinism assertion above is vacuous.
	x3, _, _ := xsTrajectory(t, 43)
	same := true
	for i := range x1 {
		if x1[i] != x3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seed change did not alter the trajectory — rng not wired through")
	}
}

// TestXSNNQMDDeterministicAcrossWorkerCounts: the MLMD_WORKERS override
// (exercised here via par.SetWorkers) must not change a single bit of the
// trajectory — the PR-1 deterministic-reduction contract, extended to the
// full module.
func TestXSNNQMDDeterministicAcrossWorkerCounts(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)

	par.SetWorkers(1)
	x1, v1, q1 := xsTrajectory(t, 7)
	for _, w := range []int{2, 4, 7} {
		par.SetWorkers(w)
		xw, vw, qw := xsTrajectory(t, 7)
		for i := range x1 {
			if x1[i] != xw[i] || v1[i] != vw[i] {
				t.Fatalf("workers=%d: trajectory diverged at %d", w, i)
			}
		}
		if q1 != qw {
			t.Fatalf("workers=%d: topological charge %v vs %v", w, qw, q1)
		}
	}
}

// TestLJWorkerCountDeterminism extends the same guarantee to the classical
// LJ engine the sharded runs build on.
func TestLJWorkerCountDeterminism(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)

	run := func() []float64 {
		sys, err := md.NewSystem(256, 10, 10, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sys.N; i++ {
			sys.X[3*i] = float64(i%8) * 1.25
			sys.X[3*i+1] = float64((i/8)%8) * 1.25
			sys.X[3*i+2] = float64(i/64) * 2.5
			sys.Mass[i] = 40
		}
		sys.InitVelocities(5e-4, 3)
		nl, err := md.NewNeighborList(1.5, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		nl.Build(sys)
		lj := &md.LennardJones{Epsilon: 0.01, Sigma: 1.0, NL: nl}
		lj.ComputeForces(sys)
		for s := 0; s < 100; s++ {
			md.VelocityVerlet(sys, lj, 2.0)
		}
		return append([]float64(nil), sys.X...)
	}

	par.SetWorkers(1)
	ref := run()
	for _, w := range []int{3, 8} {
		par.SetWorkers(w)
		got := run()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: X[%d] = %v, want %v", w, i, got[i], ref[i])
			}
		}
	}
}

// domainBits flattens everything NewDCMESH prepares and MDStep advances —
// per domain Ψ, Ψ(0), the orbital energies, v_loc and the surface-hopping
// occupations — into raw bits, in domain-slot order.
func domainBits(m *DCMESH) []uint64 {
	var bits []uint64
	for _, d := range m.Domains {
		bits = append(bits, uint64(d.Dom.ID), uint64(d.XCell))
		for _, field := range [][]complex128{d.Psi.Data, d.Psi0.Data} {
			for _, z := range field {
				bits = append(bits, math.Float64bits(real(z)), math.Float64bits(imag(z)))
			}
		}
		for _, vals := range [][]float64{d.Energy, d.H.Vloc, d.SH.F} {
			for _, v := range vals {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	return bits
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []uint64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// smallScissorDCMESH is a quick 8-domain module with the scissor on.
func smallScissorDCMESH(t *testing.T) *DCMESH {
	t.Helper()
	cfg := DefaultDCMESHConfig()
	cfg.NQD = 6
	cfg.GroundIters = 10
	cfg.NonlocalDelta = complex(0, 1e-6)
	m, err := NewDCMESH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDCMESHDeterministicAcrossWorkerCounts extends the worker-count
// contract to the quantum-dynamics module: ground-state preparation (one
// pool task per domain), two MD steps of driven sub-steps with the scissor
// on (vector kernels under every domain) and the surface-hopping hand-off
// leave Ψ and the occupations bitwise identical at 1, 2, 4 and 7 workers.
func TestDCMESHDeterministicAcrossWorkerCounts(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)

	run := func() []uint64 {
		m := smallScissorDCMESH(t)
		m.MDStep()
		m.MDStep()
		return domainBits(m)
	}
	par.SetWorkers(1)
	ref := run()
	if firstDiff(domainBits(smallScissorDCMESH(t)), ref) < 0 {
		t.Fatal("two MD steps left the state untouched — the comparison below would be vacuous")
	}
	for _, w := range []int{2, 4, 7} {
		par.SetWorkers(w)
		if i := firstDiff(run(), ref); i >= 0 {
			t.Fatalf("workers=%d: state differs from the 1-worker run at word %d", w, i)
		}
	}
}

// TestNewDCMESHMatchesSerialPreparation: preparing the domains side by side
// on the pool yields, field for field and slot for slot, the bits of
// preparing them one after another — at 1, 2 and 4 workers.
func TestNewDCMESHMatchesSerialPreparation(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)

	par.SetWorkers(1)
	serial := smallScissorDCMESH(t)
	for di, dom := range serial.Decomp.Domains() {
		// The serial preparation: one newDomainState after another.
		d, err := newDomainState(serial.Cfg, serial.Decomp, serial.Field, dom)
		if err != nil {
			t.Fatal(err)
		}
		serial.Domains[di] = d
	}
	want := domainBits(serial)
	for _, w := range []int{1, 2, 4} {
		par.SetWorkers(w)
		if i := firstDiff(domainBits(smallScissorDCMESH(t)), want); i >= 0 {
			t.Fatalf("workers=%d: prepared state differs from the serial preparation at word %d", w, i)
		}
	}
}

// TestMDStepAllocsIndependentOfNQD: the field history, occupation and
// overlap scratch and the result slice live in the module, and a domain's
// sub-steps run without pool closures, so what one MDStep allocates does
// not grow with the number of QD sub-steps.
func TestMDStepAllocsIndependentOfNQD(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)
	par.SetWorkers(1) // inline pool: count the module's own allocations only

	allocs := func(nqd int) float64 {
		cfg := DefaultDCMESHConfig()
		cfg.Global = grid.NewCubic(8, 0.8)
		cfg.Dx, cfg.Dy, cfg.Dz = 2, 1, 1
		cfg.NQD = nqd
		cfg.GroundIters = 5
		cfg.NonlocalDelta = complex(0, 1e-6)
		m, err := NewDCMESH(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.MDStep() // first call grows the scratch
		return testing.AllocsPerRun(5, func() { m.MDStep() })
	}
	few, many := allocs(2), allocs(16)
	if many > few {
		t.Errorf("MDStep allocates %v objects at NQD=16 but %v at NQD=2", many, few)
	}
	t.Logf("MDStep allocations: %v at NQD=2, %v at NQD=16", few, many)
}

// TestDCMESHMDStepSteadyStateAllocs: once the first step has grown the
// module's scratch, an MD step — field sampling, the domains' driven
// sub-steps with the scissor, the survival projections, the overlap
// couplings and the surface-hopping update — allocates nothing.
func TestDCMESHMDStepSteadyStateAllocs(t *testing.T) {
	prev := par.Workers()
	defer par.SetWorkers(prev)
	par.SetWorkers(1) // inline pool: count the module's own allocations only

	cfg := DefaultDCMESHConfig()
	cfg.Global = grid.NewCubic(8, 0.8)
	cfg.Dx, cfg.Dy, cfg.Dz = 2, 2, 2
	cfg.Norb = 8
	cfg.NQD = 2
	cfg.GroundIters = 5
	cfg.NonlocalDelta = complex(0, 1e-6)
	m, err := NewDCMESH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.MDStep()
	if allocs := testing.AllocsPerRun(5, func() { m.MDStep() }); allocs != 0 {
		t.Errorf("MDStep allocates %v objects per step at %d domains, want 0", allocs, len(m.Domains))
	}
}
