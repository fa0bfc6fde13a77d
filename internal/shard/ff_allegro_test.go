package shard

import (
	"math"
	"math/rand"
	"testing"

	"mlmd/internal/allegro"
	"mlmd/internal/md"
)

// newAllegroFixture builds a random two-species gas and an untrained (but
// deterministic) Allegro-style model over it.
func newAllegroFixture(t testing.TB, n int, l float64) (*md.System, *allegro.Model) {
	t.Helper()
	sys, model, err := allegroGas(n, l)
	if err != nil {
		t.Fatal(err)
	}
	return sys, model
}

func allegroGas(n int, l float64) (*md.System, *allegro.Model, error) {
	sys, err := md.NewSystem(n, l, l, l)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		sys.X[3*i] = rng.Float64() * l
		sys.X[3*i+1] = rng.Float64() * l
		sys.X[3*i+2] = rng.Float64() * l
		sys.Mass[i] = 30
		sys.Type[i] = i % 2
	}
	model, err := allegro.NewModel(allegro.DescriptorSpec{Cutoff: 2.5, NRadial: 4, NSpecies: 2}, []int{16, 16}, 3)
	return sys, model, err
}

// TestShardAllegroMatchesGlobal: the sharded Allegro evaluation — per-rank
// shared-weight clones, payload halo, canonical-order assembly — matches
// the global model to summation-order rounding.
func TestShardAllegroMatchesGlobal(t *testing.T) {
	sys, model := newAllegroFixture(t, 400, 12.0)

	ref := cloneSys(t, sys)
	peRef := model.ComputeForces(ref)

	for _, p := range []int{1, 2, 4} {
		got := cloneSys(t, sys)
		eng, err := NewEngine(Config{
			Grid: [3]int{p, 1, 1}, Cutoff: model.Spec.Cutoff, Skin: 0.3,
			NewFF: AllegroFactory(model),
		}, got)
		if err != nil {
			t.Fatal(err)
		}
		pe := eng.ComputeForces(got)
		if err := eng.Validate(); err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(pe-peRef) / math.Abs(peRef); rel > 1e-12 {
			t.Errorf("P=%d: PE %v vs global %v (rel %g)", p, pe, peRef, rel)
		}
		worst := 0.0
		scale := 0.0
		for i := range ref.F {
			if d := math.Abs(got.F[i] - ref.F[i]); d > worst {
				worst = d
			}
			if a := math.Abs(ref.F[i]); a > scale {
				scale = a
			}
		}
		if worst > 1e-10*math.Max(scale, 1) {
			t.Errorf("P=%d: worst force diff %g (scale %g)", p, worst, scale)
		}
		eng.Close()
	}
}

// TestShardAllegroShortTrajectory: a short sharded NVE trajectory under the
// neural force field stays within tolerance of the global one (reverse
// force halo in the time loop).
func TestShardAllegroShortTrajectory(t *testing.T) {
	sys, model := newAllegroFixture(t, 200, 10.0)
	const steps, dt = 25, 1.0

	ref := cloneSys(t, sys)
	refModel := model.CloneShared()
	refModel.ComputeForces(ref)
	for s := 0; s < steps; s++ {
		md.VelocityVerlet(ref, refModel, dt)
	}

	got := cloneSys(t, sys)
	eng, err := NewEngine(Config{
		Grid: [3]int{2, 1, 1}, Cutoff: model.Spec.Cutoff, Skin: 0.3,
		NewFF: AllegroFactory(model),
	}, got)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Run(steps, dt, 0, 0)
	eng.Gather(got)

	worst := 0.0
	for i := range ref.X {
		d := math.Abs(got.X[i] - ref.X[i])
		d = math.Min(d, math.Abs(d-got.Lx))
		if d > worst {
			worst = d
		}
	}
	if worst > 1e-8 {
		t.Errorf("worst |Δx| vs global Allegro after %d steps: %g", steps, worst)
	}
	t.Logf("worst |Δx| vs global Allegro after %d steps: %g", steps, worst)
}

// TestAllegroTapeAlignment: on a balanced 2x2x1 engine — moving cut planes,
// migrations and rebuilds — every owned atom's phase-two count of neighbors
// within the cutoff, taken from its own side of each pair, equals the count
// phase one taped from the other side, so phase two's n-th accepted
// neighbor reads the n-th record of the row. A misaligned count fails phase
// two loudly.
func TestAllegroTapeAlignment(t *testing.T) {
	sys, model := newAllegroFixture(t, 160, 12.0)
	sys.InitVelocities(3e-3, 4)
	model.BlockSize = 64
	eng, err := NewEngine(Config{
		Grid: [3]int{2, 2, 1}, Cutoff: model.Spec.Cutoff, Skin: 0.3,
		NewFF:   AllegroFactory(model),
		Balance: true, BalanceEvery: 1, BalanceCost: CostStepTime,
	}, sys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	eng.Run(matrixSteps(testing.Short()), 1.0, 0, 0)
	if rebuilds, _ := eng.Stats(); rebuilds < 2 {
		t.Fatalf("only %d rebuilds — gas too cold to move the list", rebuilds)
	}
	if rebalances, _ := eng.BalanceStats(); rebalances < 1 {
		t.Fatal("no rebalance fired")
	}
	rc := model.Spec.Cutoff
	for _, rs := range eng.rs {
		a := rs.ff.(*AllegroFF)
		v := &rs.v
		px, py, pz := v.Periods()
		for j := 0; j < v.NOwn; j++ {
			n := 0
			for _, i32 := range v.NL.Row(j) {
				i := int(i32)
				dx := px.MinImage(v.X[3*j] - v.X[3*i])
				dy := py.MinImage(v.X[3*j+1] - v.X[3*i+1])
				dz := pz.MinImage(v.X[3*j+2] - v.X[3*i+2])
				if r := math.Sqrt(dx*dx + dy*dy + dz*dz); r < rc && r != 0 {
					n++
				}
			}
			if n != int(a.nAcc[j]) {
				t.Fatalf("rank %d atom %d: %d neighbors within the cutoff, %d taped", v.Rank, v.ID[j], n, a.nAcc[j])
			}
		}
	}
	// The check inside phase two: a count off by one panics instead of
	// assembling from the neighboring record.
	rs := eng.rs[0]
	a := rs.ff.(*AllegroFF)
	a.nAcc[0]++
	defer func() {
		a.nAcc[0]--
		if r := recover(); r == nil {
			t.Error("phase two assembled atom 0 from a misaligned tape without failing")
		}
	}()
	a.PhaseTwo(&rs.v, rs.aux, 0, 1)
}
