package shard

import (
	"math"
	"slices"
	"strings"
	"testing"

	"mlmd/internal/md"
)

// fccLJSystem builds a warm fcc LJ crystal via the shared md.NewFCCSystem
// fixture (spacing 1.7, mass 50 — the geometry the committed benchmarks
// also use).
func fccLJSystem(t testing.TB, cells int, kT float64, seed int64) *md.System {
	t.Helper()
	sys, err := md.NewFCCSystem(cells, 1.7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if kT > 0 {
		sys.InitVelocities(kT, seed)
	}
	return sys
}

func cloneSys(t testing.TB, sys *md.System) *md.System {
	t.Helper()
	return sys.Clone()
}

const (
	testEps    = 0.01
	testSigma  = 1.0
	testCutoff = 1.5
	testSkin   = 0.3
)

func newLJEngine(t testing.TB, sys *md.System, ranks int) *Engine {
	t.Helper()
	eng, err := NewEngine(Config{
		Grid: [3]int{ranks, 1, 1}, Cutoff: testCutoff, Skin: testSkin,
		NewFF: LJFactory(testEps, testSigma),
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// TestShardMatchesSingleRankBitwise is the tentpole acceptance test: the
// P-rank sharded LJ trajectory is bitwise identical to the 1-rank one over
// 520 NVE steps — far inside the ≤1e-9 acceptance bound — while real
// migrations and halo rebuilds occur.
func TestShardMatchesSingleRankBitwise(t *testing.T) {
	const cells, steps = 9, 520
	const dt = 2.0
	base := fccLJSystem(t, cells, 1e-3, 1)

	ref := cloneSys(t, base)
	e1 := newLJEngine(t, ref, 1)
	r1 := e1.Run(steps, dt, 0, 0)
	e1.Gather(ref)

	for _, p := range []int{2, 4, 8} {
		got := cloneSys(t, base)
		ep := newLJEngine(t, got, p)
		rp := ep.Run(steps, dt, 0, 0)
		ep.Gather(got)
		if err := ep.Validate(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		rebuilds, migrated := ep.Stats()
		if rebuilds < 5 {
			t.Errorf("P=%d: only %d rebuilds in %d steps — test not exercising the event path", p, rebuilds, steps)
		}
		if migrated == 0 {
			t.Errorf("P=%d: no atoms migrated across ranks", p)
		}
		for i := range ref.X {
			if got.X[i] != ref.X[i] {
				t.Fatalf("P=%d: X[%d] = %v, want %v (diff %g)", p, i, got.X[i], ref.X[i], got.X[i]-ref.X[i])
			}
			if got.V[i] != ref.V[i] {
				t.Fatalf("P=%d: V[%d] = %v, want %v", p, i, got.V[i], ref.V[i])
			}
		}
		if math.Abs(rp.KE-r1.KE) > 1e-12*math.Abs(r1.KE) {
			t.Errorf("P=%d: KE %v vs %v", p, rp.KE, r1.KE)
		}
		if math.Abs(rp.PE-r1.PE) > 1e-9*math.Abs(r1.PE) {
			t.Errorf("P=%d: PE %v vs %v", p, rp.PE, r1.PE)
		}
	}
}

// TestShardBridgeMatchesRun: driving the engine through the
// md.ForceField bridge (md.VelocityVerlet on the global system) is bitwise
// identical to the decomposed Run loop.
func TestShardBridgeMatchesRun(t *testing.T) {
	const cells, steps = 6, 120
	const dt = 2.0
	base := fccLJSystem(t, cells, 3e-4, 2)

	viaRun := cloneSys(t, base)
	er := newLJEngine(t, viaRun, 3)
	er.Run(steps, dt, 0, 0)
	er.Gather(viaRun)

	viaBridge := cloneSys(t, base)
	eb := newLJEngine(t, viaBridge, 3)
	eb.ComputeForces(viaBridge) // prime
	for s := 0; s < steps; s++ {
		md.VelocityVerlet(viaBridge, eb, dt)
	}
	for i := range viaRun.X {
		if viaBridge.X[i] != viaRun.X[i] {
			t.Fatalf("X[%d]: bridge %v, run %v", i, viaBridge.X[i], viaRun.X[i])
		}
	}
}

// TestShardMatchesGlobalEngine: unsharded md.LennardJones under
// md.VelocityVerlet is bitwise the engine's Run at every rank count — X, V
// and F — over 500 steps with rebuilds on both sides. Both walk the same
// ascending-gid rows through the same row kernel, and the integrators agree
// bitwise (TestShardBridgeMatchesRun). Only the PE's chunk grouping differs
// across rank counts.
func TestShardMatchesGlobalEngine(t *testing.T) {
	const cells, steps = 6, 500
	const dt = 2.0
	base := fccLJSystem(t, cells, 1e-3, 3)

	ref := cloneSys(t, base)
	nl, err := md.NewNeighborList(testCutoff, testSkin)
	if err != nil {
		t.Fatal(err)
	}
	lj := &md.LennardJones{Epsilon: testEps, Sigma: testSigma, NL: nl}
	lj.ComputeForces(ref)
	var pe float64
	for s := 0; s < steps; s++ {
		pe = md.VelocityVerlet(ref, lj, dt)
	}

	for _, p := range []int{1, 2, 4} {
		got := cloneSys(t, base)
		eng := newLJEngine(t, got, p)
		res := eng.Run(steps, dt, 0, 0)
		eng.Gather(got)
		if rebuilds, _ := eng.Stats(); rebuilds < 3 {
			t.Errorf("P=%d: only %d rebuilds in %d steps", p, rebuilds, steps)
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{{"X", got.X, ref.X}, {"V", got.V, ref.V}, {"F", got.F, ref.F}} {
			for i := range c.want {
				if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
					t.Fatalf("P=%d: %s[%d] = %v, unsharded %v", p, c.name, i, c.got[i], c.want[i])
				}
			}
		}
		if math.Abs(res.PE-pe) > 1e-12*math.Abs(pe) {
			t.Errorf("P=%d: PE %v, unsharded %v", p, res.PE, pe)
		}
	}
}

// TestShardBerendsen: the decomposed thermostat drives the system toward
// the target temperature and stays close to the global implementation.
func TestShardBerendsen(t *testing.T) {
	const cells, steps = 6, 150
	const dt, kT, tau = 2.0, 5e-4, 100.0
	base := fccLJSystem(t, cells, 1e-4, 4)

	got := cloneSys(t, base)
	eng := newLJEngine(t, got, 4)
	res := eng.Run(steps, dt, kT, tau)
	if math.Abs(res.Temperature-kT) > 0.5*kT {
		t.Errorf("temperature %g did not approach target %g", res.Temperature, kT)
	}

	ref := cloneSys(t, base)
	nl, _ := md.NewNeighborList(testCutoff, testSkin)
	nl.Build(ref)
	lj := &md.LennardJones{Epsilon: testEps, Sigma: testSigma, NL: nl}
	lj.ComputeForces(ref)
	for s := 0; s < steps; s++ {
		md.VelocityVerlet(ref, lj, dt)
		md.BerendsenThermostat(ref, kT, tau, dt)
	}
	refT := ref.Temperature()
	if math.Abs(res.Temperature-refT) > 1e-3*refT {
		t.Errorf("sharded T %g vs global T %g", res.Temperature, refT)
	}
}

// TestShardColdStability: a perfectly cold lattice stays put (forces are
// tiny and symmetric; nothing migrates, nothing rebuilds after the first).
func TestShardColdStability(t *testing.T) {
	base := fccLJSystem(t, 5, 0, 0)
	eng := newLJEngine(t, base, 4)
	eng.Run(50, 2, 0, 0)
	rebuilds, migrated := eng.Stats()
	if rebuilds != 1 {
		t.Errorf("cold lattice rebuilt %d times, want 1 (the initial build)", rebuilds)
	}
	if migrated != 0 {
		t.Errorf("cold lattice migrated %d atoms", migrated)
	}
	got := cloneSys(t, base)
	eng.Gather(got)
	for i := 0; i < base.N; i++ {
		for d, l := range [3]float64{base.Lx, base.Ly, base.Lz} {
			if math.Abs(md.MinImage1(got.X[3*i+d]-base.X[3*i+d], l)) > 1e-10 {
				t.Fatalf("cold atom moved: X[%d] %v -> %v", 3*i+d, base.X[3*i+d], got.X[3*i+d])
			}
		}
	}
}

// TestShardTeleportRecovery: handing the bridge a completely new
// configuration (atoms far outside their slabs) converges through
// multi-round ring migration and still matches a fresh engine bitwise.
func TestShardTeleportRecovery(t *testing.T) {
	const cells = 6
	base := fccLJSystem(t, cells, 3e-4, 5)
	eng := newLJEngine(t, base, 4)
	eng.ComputeForces(base)

	// Teleport: shift every atom halfway across the box.
	shifted := cloneSys(t, base)
	for i := 0; i < shifted.N; i++ {
		shifted.X[3*i] = math.Mod(shifted.X[3*i]+shifted.Lx/2, shifted.Lx)
	}
	pe := eng.ComputeForces(shifted)
	if err := eng.Validate(); err != nil {
		t.Fatal(err)
	}

	fresh := newLJEngine(t, shifted, 4)
	peFresh := fresh.ComputeForces(shifted)
	if pe != peFresh {
		// Partial-sum order depends on ownership history; allow rounding.
		if math.Abs(pe-peFresh) > 1e-9*math.Abs(peFresh) {
			t.Errorf("teleported PE %v vs fresh engine %v", pe, peFresh)
		}
	}
	f1 := append([]float64(nil), shifted.F...)
	fresh.ComputeForces(shifted)
	for i := range f1 {
		if f1[i] != shifted.F[i] {
			t.Fatalf("F[%d] after teleport: %v, fresh %v", i, f1[i], shifted.F[i])
		}
	}
}

// TestShardEngineValidation covers the constructor's error paths.
func TestShardEngineValidation(t *testing.T) {
	sys := fccLJSystem(t, 4, 0, 0)
	slab := func(p int) [3]int { return [3]int{p, 1, 1} }
	if _, err := NewEngine(Config{Cutoff: 1, NewFF: LJFactory(1, 1)}, sys); err == nil {
		t.Error("accepted a zero grid")
	}
	if _, err := NewEngine(Config{Grid: slab(2), Cutoff: -1, NewFF: LJFactory(1, 1)}, sys); err == nil {
		t.Error("accepted negative cutoff")
	}
	if _, err := NewEngine(Config{Grid: slab(2), Cutoff: 1, Skin: 0.1}, sys); err == nil {
		t.Error("accepted nil force-field factory")
	}
	if _, err := NewEngine(Config{Grid: slab(2), Cutoff: 1, NewFF: LJFactory(1, 1)}, nil); err == nil {
		t.Error("accepted nil system")
	}
	// halo wider than the slab
	if _, err := NewEngine(Config{Grid: slab(8), Cutoff: 2, Skin: 0.3, NewFF: LJFactory(1, 1)}, sys); err == nil {
		t.Error("accepted halo wider than slab")
	}
	noKind := func(int) RankFF { return energyOnlyFF{} }
	if _, err := NewEngine(Config{Grid: slab(2), Cutoff: 1, NewFF: noKind}, sys); err == nil || !strings.Contains(err.Error(), "neither") {
		t.Errorf("accepted a force field that is neither a BlockFF nor a TwoPhaseFF (err %v)", err)
	}
}

// energyOnlyFF is a RankFF of neither kind: it has no evaluation.
type energyOnlyFF struct{}

func (energyOnlyFF) PartialLen() int                 { return 1 }
func (energyOnlyFF) NeedsNeighborList() bool         { return false }
func (energyOnlyFF) Energy(*View, []float64) float64 { return 0 }

// TestShardNeighborRowOrder: rows are sorted by ascending global id and
// contain exactly the within-range neighbors.
func TestShardNeighborRowOrder(t *testing.T) {
	sys := fccLJSystem(t, 5, 3e-4, 6)
	eng := newLJEngine(t, sys, 4)
	eng.ComputeForces(sys)
	for _, rs := range eng.rs {
		for i := 0; i < rs.nOwn; i++ {
			row := rs.nl.Row(i)
			for k := 1; k < len(row); k++ {
				if rs.ids[row[k-1]] >= rs.ids[row[k]] {
					t.Fatalf("rank %d row %d not gid-sorted", rs.rank, i)
				}
			}
			// brute-force cross-check
			r := testCutoff + testSkin
			count := 0
			for j := 0; j < rs.nLoc; j++ {
				if j == i {
					continue
				}
				dx := md.MinImage1(rs.x[3*i]-rs.x[3*j], sys.Lx)
				dy := md.MinImage1(rs.x[3*i+1]-rs.x[3*j+1], sys.Ly)
				dz := md.MinImage1(rs.x[3*i+2]-rs.x[3*j+2], sys.Lz)
				if dx*dx+dy*dy+dz*dz <= r*r {
					count++
				}
			}
			if count != len(row) {
				t.Fatalf("rank %d atom %d: row has %d neighbors, brute force finds %d", rs.rank, i, len(row), count)
			}
		}
	}
}

// TestPrunedListIsTheListAtItsRadius: after every step that renewed the
// inner list — a prune from the outer rows, or a rebuild at a widened
// buffer — each rank's rows are exactly the rows a fresh build at
// Cutoff+Skin gives on the same local atoms. A prune from an outer list
// that had stopped being complete, or at a radius short of Cutoff+Skin,
// fails it at once, where the trajectory's bits would show it only once a
// missed pair came inside the cutoff.
func TestPrunedListIsTheListAtItsRadius(t *testing.T) {
	base := fccLJSystem(t, 6, 3e-3, 5)
	eng, err := NewEngine(Config{
		Grid: [3]int{2, 1, 1}, Cutoff: testCutoff, Skin: testSkin,
		NewFF: LJFactory(testEps, testSigma),
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	eng.Run(0, 2, 0, 0)
	want := &md.NeighborList{Cutoff: testCutoff, Skin: testSkin}
	checked := 0
	for s := 0; s < 400; s++ {
		rb0, _ := eng.Stats()
		pr0, _ := eng.ListStats()
		eng.Run(1, 2, 0, 0)
		rb, _ := eng.Stats()
		pr, buf := eng.ListStats()
		if buf <= testSkin || (rb == rb0 && pr == pr0) {
			continue
		}
		checked++
		for _, rs := range eng.local {
			want.BuildOwned(rs.v.Sys, rs.v.ID, rs.nOwn)
			for i := 0; i < rs.nOwn; i++ {
				if !slices.Equal(rs.nl.Row(i), want.Row(i)) {
					t.Fatalf("step %d, rank %d, row %d: inner list %v, built at its radius %v",
						s, rs.rank, i, rs.nl.Row(i), want.Row(i))
				}
			}
		}
	}
	if pr, _ := eng.ListStats(); checked == 0 || pr == 0 {
		t.Fatalf("checked %d renewals, %d of them prunes: the dual list never ran", checked, pr)
	}
}
