package md

import (
	"math"
	"math/rand"
	"testing"
)

// TestBerendsenLambdaClamped: regression for the thermostat NaN. The
// square-root argument 1 + dt/tau·(kT/cur − 1) goes negative whenever
// cur > kT·(1 + tau/dt); the clamp must return 0, never NaN.
func TestBerendsenLambdaClamped(t *testing.T) {
	// cur = 1 ≫ kT·(1 + tau/dt) = 1e-6·(1 + 0.01)
	if l := BerendsenLambda(1.0, 1e-6, 0.1, 10); l != 0 {
		t.Errorf("overshoot lambda = %v, want 0", l)
	}
	if l := BerendsenLambda(1e-6, 1e-6, 50, 2); math.Abs(l-1) > 1e-12 {
		t.Errorf("on-target lambda = %v, want 1", l)
	}
	// heating: lambda > 1, cooling within range: 0 < lambda < 1
	if l := BerendsenLambda(1e-4, 2e-4, 50, 2); !(l > 1) || math.IsNaN(l) {
		t.Errorf("heating lambda = %v", l)
	}
	if l := BerendsenLambda(2e-4, 1e-4, 50, 2); !(l > 0 && l < 1) {
		t.Errorf("cooling lambda = %v", l)
	}
}

// TestBerendsenThermostatNaNRegression drives the seed's failure mode: a
// system far hotter than the target with tau comparable to dt. The seed
// produced NaN velocities; the clamped thermostat must quench instead.
func TestBerendsenThermostatNaNRegression(t *testing.T) {
	sys, lj := newLJSystem(t, 2, 0.0005)
	lj.ComputeForces(sys)
	for i := range sys.V {
		sys.V[i] *= 1e6 // an excitation kick gone wrong
	}
	BerendsenThermostat(sys, 0.0005, 2.0, 2.0) // tau == dt
	for i, v := range sys.V {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("V[%d] = %v after thermostat", i, v)
		}
	}
	if got := sys.Temperature(); math.IsNaN(got) {
		t.Fatal("temperature is NaN")
	}
	// Subsequent steps must stay finite.
	for s := 0; s < 10; s++ {
		VelocityVerlet(sys, lj, 2.0)
		BerendsenThermostat(sys, 0.0005, 2.0, 2.0)
	}
	if got := sys.Temperature(); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("temperature = %v after recovery steps", got)
	}
}

// TestNVELongDriftAndMomentum: velocity-Verlet + LJ over 2000 steps — total
// energy drift stays bounded and the total momentum is conserved to
// near-machine precision (the pairwise forces cancel exactly; only
// accumulation rounding remains).
func TestNVELongDriftAndMomentum(t *testing.T) {
	sys, lj := newLJSystem(t, 3, 0.0005)
	pe := lj.ComputeForces(sys)
	e0 := pe + sys.KineticEnergy()
	p0x, p0y, p0z := totalMomentum(sys)
	dt := 2.0
	var driftMax, pDriftMax float64
	for step := 0; step < 2000; step++ {
		pe = VelocityVerlet(sys, lj, dt)
		if d := math.Abs(pe + sys.KineticEnergy() - e0); d > driftMax {
			driftMax = d
		}
		px, py, pz := totalMomentum(sys)
		pd := math.Abs(px-p0x) + math.Abs(py-p0y) + math.Abs(pz-p0z)
		if pd > pDriftMax {
			pDriftMax = pd
		}
	}
	if rel := driftMax / math.Abs(e0); rel > 1e-2 {
		t.Errorf("2000-step NVE energy drift %g (relative %g)", driftMax, rel)
	}
	if pDriftMax > 1e-12 {
		t.Errorf("momentum drift %g, want <= 1e-12", pDriftMax)
	}
}

// TestFCCSystemAndClone: the shared fixture builder and deep copy.
func TestFCCSystemAndClone(t *testing.T) {
	if _, err := NewFCCSystem(0, 1.7, 50); err == nil {
		t.Error("accepted 0 cells")
	}
	sys, err := NewFCCSystem(3, 1.7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if sys.N != 4*27 || sys.Lx != 3*1.7 || sys.Mass[0] != 50 {
		t.Errorf("fcc shape wrong: N=%d L=%g m=%g", sys.N, sys.Lx, sys.Mass[0])
	}
	c := sys.Clone()
	c.X[0] += 1
	c.V[0] += 1
	if sys.X[0] == c.X[0] || sys.V[0] == c.V[0] {
		t.Error("Clone shares storage with the original")
	}
}

func totalMomentum(sys *System) (px, py, pz float64) {
	for i := 0; i < sys.N; i++ {
		px += sys.Mass[i] * sys.V[3*i]
		py += sys.Mass[i] * sys.V[3*i+1]
		pz += sys.Mass[i] * sys.V[3*i+2]
	}
	return
}

// TestWrapMinImageInvariants: property-style round trips between Wrap and
// MinImage over random displacements.
func TestWrapMinImageInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const l = 7.3
	for trial := 0; trial < 2000; trial++ {
		x := (rng.Float64() - 0.5) * 40 * l
		w := wrap1(x, l)
		if w < 0 || w >= l {
			t.Fatalf("wrap1(%g) = %g outside [0, %g)", x, w, l)
		}
		// wrapping moves by an exact multiple of the box
		if d := math.Abs(MinImage1(x-w, l)); d > 1e-9 {
			t.Fatalf("wrap1(%g) shifted by a non-lattice vector (residual %g)", x, d)
		}
		d := (rng.Float64() - 0.5) * 10 * l
		m := MinImage1(d, l)
		if m < -l/2-1e-12 || m > l/2+1e-12 {
			t.Fatalf("MinImage1(%g) = %g outside [-L/2, L/2]", d, m)
		}
		// antisymmetry is exact (bitwise up to signed zero)
		if m != -MinImage1(-d, l) && !(m == 0 && MinImage1(-d, l) == 0) {
			t.Fatalf("minImage1 not antisymmetric at %g", d)
		}
		// periodic invariance
		if diff := math.Abs(MinImage1(d+3*l, l) - m); diff > 1e-9 {
			t.Fatalf("minImage1 not periodic at %g (diff %g)", d, diff)
		}
		// idempotence
		if got := MinImage1(m, l); got != m {
			t.Fatalf("minImage1 not idempotent at %g: %g -> %g", d, m, got)
		}
	}
	// Wrap/MinImage on a System agree with the scalar helpers.
	sys, _ := NewSystem(2, l, l, l)
	sys.X[0], sys.X[3] = 0.1, l-0.1
	dx, _, _ := sys.MinImage(0, 1)
	if math.Abs(dx-0.2) > 1e-12 {
		t.Errorf("cross-boundary MinImage = %g, want 0.2", dx)
	}
}
