package units

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Abs(want) {
		t.Errorf("%s = %g, want %g (tol %g)", name, got, want, tol)
	}
}

func TestLengthRoundTrip(t *testing.T) {
	for _, v := range []float64{0.1, 1, 3.97, 100} {
		approx(t, Bohr(Angstrom(v)), v, 1e-12, "Bohr(Angstrom)")
		approx(t, Angstrom(Bohr(v)), v, 1e-12, "Angstrom(Bohr)")
	}
}

func TestEnergyRoundTrip(t *testing.T) {
	for _, v := range []float64{0.001, 1, 27.2, 500} {
		approx(t, Hartree(EV(v)), v, 1e-12, "Hartree(EV)")
		approx(t, EV(Hartree(v)), v, 1e-12, "EV(Hartree)")
	}
}

func TestTimeRoundTrip(t *testing.T) {
	for _, v := range []float64{0.01, 1, 41.34, 1000} {
		approx(t, AUTime(Femtoseconds(v)), v, 1e-12, "AUTime(Femtoseconds)")
	}
}

func TestKnownValues(t *testing.T) {
	// 1 Hartree = 27.211386 eV.
	approx(t, EV(1), 27.211386245988, 1e-12, "EV(1)")
	// 1 a.u. of time ≈ 24.188843 as.
	approx(t, Attoseconds(1), 24.188843265857, 1e-12, "Attoseconds(1)")
	// 1 Bohr ≈ 0.529177 Å.
	approx(t, Angstrom(1), 0.529177210544, 1e-7, "Angstrom(1)")
	// Room temperature ≈ 0.000949 Ha.
	approx(t, ThermalEnergy(300), 300.0/315775.02480407, 1e-12, "ThermalEnergy(300)")
}

func TestMassAU(t *testing.T) {
	approx(t, MassAU(1), 1822.888486209, 1e-12, "MassAU(1)")
	if MassAU(MassPbAMU) < MassAU(MassOAMU) {
		t.Error("Pb must be heavier than O")
	}
}
