package maxwell

import (
	"math"
	"testing"

	"mlmd/internal/units"
)

func TestNewFieldValidation(t *testing.T) {
	if _, err := NewField(2, 1, 1e-3); err == nil {
		t.Error("too few cells accepted")
	}
	if _, err := NewField(10, -1, 1e-3); err == nil {
		t.Error("negative dx accepted")
	}
	// CFL: c*dt > dx must fail.
	if _, err := NewField(10, 1.0, 1.0); err == nil {
		t.Error("CFL violation accepted")
	}
	if _, err := NewField(10, 10.0, 10.0/units.LightSpeed*0.9); err != nil {
		t.Errorf("valid field rejected: %v", err)
	}
}

func newTestField(t *testing.T, n int, dx float64) *Field {
	t.Helper()
	dt := 0.5 * dx / units.LightSpeed
	f, err := NewField(n, dx, dt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFreePropagationConservesEnergy(t *testing.T) {
	f := newTestField(t, 256, 5.0)
	// Smooth standing-wave initial condition with zero initial velocity.
	for i := 0; i < f.N; i++ {
		v := math.Sin(2 * math.Pi * float64(i) / float64(f.N))
		f.A[i] = v
		f.APrev[i] = v
	}
	// Let it ring; leapfrog conserves a discrete energy to high accuracy.
	var e0 float64
	for step := 0; step < 2000; step++ {
		f.Step()
		if step == 10 {
			e0 = f.Energy()
		}
		if step > 10 {
			e := f.Energy()
			if math.Abs(e-e0) > 0.02*e0 {
				t.Fatalf("energy drifted: %g vs %g at step %d", e, e0, step)
			}
		}
	}
}

func TestPulsePropagatesAtLightSpeed(t *testing.T) {
	n := 512
	dx := 10.0
	f := newTestField(t, n, dx)
	// Initialize a right-moving Gaussian wave packet:
	// A(x, 0) = g(x), A(x, -dt) = g(x + c dt).
	c := units.LightSpeed
	x0 := float64(n) * dx / 4
	sigma := 20 * dx
	gauss := func(x float64) float64 {
		u := x - x0
		return math.Exp(-0.5 * u * u / (sigma * sigma))
	}
	for i := 0; i < n; i++ {
		x := float64(i) * dx
		f.A[i] = gauss(x)
		f.APrev[i] = gauss(x + c*f.Dt)
	}
	steps := 1000
	for s := 0; s < steps; s++ {
		f.Step()
	}
	// Peak should have moved by c*t (modulo the periodic box length).
	wantX := math.Mod(x0+c*f.Dt*float64(steps), float64(n)*dx)
	peak, peakV := 0, 0.0
	for i := 0; i < n; i++ {
		if f.A[i] > peakV {
			peakV, peak = f.A[i], i
		}
	}
	gotX := float64(peak) * dx
	if math.Abs(gotX-wantX) > 5*dx {
		t.Errorf("peak at %g, want %g (±%g)", gotX, wantX, 5*dx)
	}
	if peakV < 0.9 {
		t.Errorf("pulse dispersed too much: peak %g", peakV)
	}
}

func TestCurrentSourceGeneratesField(t *testing.T) {
	f := newTestField(t, 128, 5.0)
	f.DipoleSource(64, 1e-4)
	for s := 0; s < 50; s++ {
		f.Step()
	}
	if f.Energy() <= 0 {
		t.Error("current source generated no field energy")
	}
	// Field should be symmetric about the source.
	for d := 1; d < 10; d++ {
		if math.Abs(f.A[64+d]-f.A[64-d]) > 1e-12 {
			t.Fatalf("field not symmetric about source at offset %d", d)
		}
	}
}

func TestPulseParameters(t *testing.T) {
	// 1.55 eV photon (800nm), 10 fs FWHM.
	p := NewPulse(0.01, units.Hartree(1.55), 20, 10)
	if p.Amplitude <= 0 || p.Omega <= 0 || p.Width <= 0 {
		t.Fatalf("bad pulse: %+v", p)
	}
	// Envelope peaks at the center.
	vC := math.Abs(p.EFieldAt(p.Center)) + math.Abs(p.EFieldAt(p.Center+1))
	vFar := math.Abs(p.EFieldAt(p.Center + 20*p.Width))
	if vFar > 1e-6*vC {
		t.Errorf("pulse does not decay: %g vs %g", vFar, vC)
	}
	// Peak E should be near the requested e0.
	maxE := 0.0
	for i := -200; i <= 200; i++ {
		e := math.Abs(p.EFieldAt(p.Center + float64(i)*p.Width/50))
		if e > maxE {
			maxE = e
		}
	}
	if math.Abs(maxE-0.01) > 0.002 {
		t.Errorf("peak E = %g, want ≈ 0.01", maxE)
	}
}

func TestDriveInjectsPulse(t *testing.T) {
	f := newTestField(t, 256, 10.0)
	p := Pulse{Amplitude: 0.5, Omega: 0.06, Center: 100 * f.Dt, Width: 30 * f.Dt}
	for s := 0; s < 400; s++ {
		f.Drive(p, 0)
		f.Step()
	}
	if f.Energy() <= 0 {
		t.Error("driven field has no energy")
	}
}

func TestCellFor(t *testing.T) {
	f := newTestField(t, 100, 2.0)
	if got := f.CellFor(0); got != 0 {
		t.Errorf("CellFor(0) = %d", got)
	}
	if got := f.CellFor(5.0); got != 3 && got != 2 {
		t.Errorf("CellFor(5.0) = %d, want 2 or 3", got)
	}
	if got := f.CellFor(199.9); got < 0 || got >= 100 {
		t.Errorf("CellFor out of range: %d", got)
	}
	if got := f.CellFor(-2.0); got != 99 {
		t.Errorf("CellFor(-2) = %d, want 99 (periodic)", got)
	}
}

func BenchmarkFDTDStep(b *testing.B) {
	dt := 0.5 * 5.0 / units.LightSpeed
	f, _ := NewField(4096, 5.0, dt)
	for i := range f.A {
		f.A[i] = math.Sin(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Step()
	}
}
