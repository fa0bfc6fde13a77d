package md

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func newLJSystem(t testing.TB, cells int, kT float64) (*System, *LennardJones) {
	// spacing 1.7 puts the fcc shell near the LJ minimum for sigma=1
	sys, err := NewFCCSystem(cells, 1.7, 50)
	if err != nil {
		t.Fatal(err)
	}
	sys.InitVelocities(kT, 1)
	nl, err := NewNeighborList(2.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(sys)
	return sys, &LennardJones{Epsilon: 0.01, Sigma: 1.0, NL: nl}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(0, 1, 1, 1); err == nil {
		t.Error("zero atoms accepted")
	}
	if _, err := NewSystem(10, -1, 1, 1); err == nil {
		t.Error("negative box accepted")
	}
}

func TestWrapAndMinImage(t *testing.T) {
	sys, _ := NewSystem(2, 10, 10, 10)
	sys.X[0], sys.X[1], sys.X[2] = 11, -1, 25
	sys.Wrap()
	if sys.X[0] != 1 || sys.X[1] != 9 || sys.X[2] != 5 {
		t.Errorf("Wrap gave %v", sys.X[:3])
	}
	sys.X[3], sys.X[4], sys.X[5] = 9.5, 0, 0
	sys.X[0], sys.X[1], sys.X[2] = 0.5, 0, 0
	dx, _, _ := sys.MinImage(0, 1)
	if math.Abs(dx-1.0) > 1e-12 {
		t.Errorf("MinImage dx = %g, want 1 (across boundary)", dx)
	}
}

func TestMaxwellBoltzmannTemperature(t *testing.T) {
	sys, _ := NewSystem(4000, 50, 50, 50)
	for i := range sys.Mass {
		sys.Mass[i] = 100
	}
	kT := 0.001
	sys.InitVelocities(kT, 2)
	if got := sys.Temperature(); math.Abs(got-kT) > 0.05*kT {
		t.Errorf("temperature = %g, want %g ± 5%%", got, kT)
	}
	// COM momentum removed.
	var px float64
	for i := 0; i < sys.N; i++ {
		px += sys.Mass[i] * sys.V[3*i]
	}
	if math.Abs(px) > 1e-8 {
		t.Errorf("COM momentum = %g", px)
	}
}

func TestNeighborListMatchesBruteForce(t *testing.T) {
	sys, _ := NewSystem(200, 12, 12, 12)
	rng := rand.New(rand.NewSource(3))
	for i := range sys.X {
		sys.X[i] = rng.Float64() * 12
	}
	for i := range sys.Mass {
		sys.Mass[i] = 1
	}
	nl, _ := NewNeighborList(3.0, 0.3)
	nl.Build(sys)
	r := nl.Cutoff + nl.Skin
	// Row i holds every j != i within cutoff+skin, in ascending order.
	for i := 0; i < sys.N; i++ {
		var want []int32
		for j := 0; j < sys.N; j++ {
			if j == i {
				continue
			}
			dx, dy, dz := sys.MinImage(i, j)
			if dx*dx+dy*dy+dz*dz <= r*r {
				want = append(want, int32(j))
			}
		}
		if got := nl.Row(i); !slices.Equal(got, want) {
			t.Fatalf("row %d = %v, brute force %v", i, got, want)
		}
	}
}

func TestNeighborListStaleness(t *testing.T) {
	sys, _ := NewSystem(8, 10, 10, 10)
	for i := range sys.Mass {
		sys.Mass[i] = 1
	}
	rng := rand.New(rand.NewSource(4))
	for i := range sys.X {
		sys.X[i] = rng.Float64() * 10
	}
	nl, _ := NewNeighborList(2.0, 0.5)
	nl.Build(sys)
	if nl.Stale(sys) {
		t.Error("fresh list reported stale")
	}
	sys.X[0] += 0.26 // > skin/2
	if !nl.Stale(sys) {
		t.Error("moved atom not detected")
	}
}

func TestNVEEnergyConservation(t *testing.T) {
	sys, lj := newLJSystem(t, 3, 0.0005)
	pe := lj.ComputeForces(sys)
	e0 := pe + sys.KineticEnergy()
	dt := 2.0
	var eDriftMax float64
	for step := 0; step < 500; step++ {
		pe = VelocityVerlet(sys, lj, dt)
		e := pe + sys.KineticEnergy()
		if d := math.Abs(e - e0); d > eDriftMax {
			eDriftMax = d
		}
	}
	if rel := eDriftMax / math.Abs(e0); rel > 5e-3 {
		t.Errorf("NVE energy drift %g (relative %g)", eDriftMax, rel)
	}
}

func TestNewtonThirdLaw(t *testing.T) {
	sys, lj := newLJSystem(t, 2, 0.001)
	lj.ComputeForces(sys)
	var fx, fy, fz float64
	for i := 0; i < sys.N; i++ {
		fx += sys.F[3*i]
		fy += sys.F[3*i+1]
		fz += sys.F[3*i+2]
	}
	if math.Abs(fx)+math.Abs(fy)+math.Abs(fz) > 1e-9 {
		t.Errorf("net force not zero: %g %g %g", fx, fy, fz)
	}
}

func TestBerendsenDrivesTemperature(t *testing.T) {
	sys, lj := newLJSystem(t, 3, 0.0001)
	lj.ComputeForces(sys)
	target := 0.0008
	dt := 2.0
	for step := 0; step < 800; step++ {
		VelocityVerlet(sys, lj, dt)
		BerendsenThermostat(sys, target, 50*dt, dt)
	}
	got := sys.Temperature()
	if math.Abs(got-target) > 0.35*target {
		t.Errorf("temperature = %g, want ≈ %g", got, target)
	}
}

func TestLangevinEquilibrates(t *testing.T) {
	sys, lj := newLJSystem(t, 3, 0.0001)
	lj.ComputeForces(sys)
	target := 0.0008
	rng := rand.New(rand.NewSource(5))
	dt := 2.0
	var acc float64
	var count int
	for step := 0; step < 1500; step++ {
		VelocityVerlet(sys, lj, dt)
		LangevinThermostat(sys, target, 0.01, dt, rng)
		if step > 700 {
			acc += sys.Temperature()
			count++
		}
	}
	got := acc / float64(count)
	if math.Abs(got-target) > 0.25*target {
		t.Errorf("mean temperature = %g, want ≈ %g", got, target)
	}
}

func TestForcesMatchEnergyGradient(t *testing.T) {
	// Central-difference check of F = −∂E/∂x on a random atom.
	sys, lj := newLJSystem(t, 3, 0)
	// Nudge off the symmetric lattice point so the force is nonzero.
	sys.X[3*7] += 0.2
	lj.ComputeForces(sys)
	f0 := sys.F[3*7] // atom 7, x component
	h := 1e-5
	sys.X[3*7] += h
	ep := lj.ComputeForces(sys)
	sys.X[3*7] -= 2 * h
	em := lj.ComputeForces(sys)
	sys.X[3*7] += h
	want := -(ep - em) / (2 * h)
	if math.Abs(f0-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("force %g vs -dE/dx %g", f0, want)
	}
}

func BenchmarkLJStep(b *testing.B) {
	sys, lj := newLJSystem(b, 5, 0.0005)
	lj.ComputeForces(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VelocityVerlet(sys, lj, 1.0)
	}
}
