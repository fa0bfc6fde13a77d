package perf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestT2SMetrics(t *testing.T) {
	// Paper Table I numbers: Qb@ll 53.2 s / 59,400 electrons.
	if got := T2SElectron(53.2, 59400); math.Abs(got-8.96e-4) > 1e-6 {
		t.Errorf("T2SElectron = %g, want 8.96e-4", got)
	}
	// Paper Table II: 3142.66 s / (1.007e12 atoms × 440 weights).
	got := T2SAtomWeight(3142.66, 1007271936000, 440)
	if math.Abs(got-7.091e-12) > 1e-14 {
		t.Errorf("T2SAtomWeight = %g, want 7.091e-12", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tab.Add("alpha", 1.5)
	tab.Add("beta", 3.14159e-9)
	s := tab.String()
	for _, want := range []string{"demo", "name", "alpha", "1.5", "3.142e-09"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	// Columns align: header separator row present.
	if !strings.Contains(s, "----") {
		t.Error("missing separator")
	}
}

func TestFormatG(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1.5:     "1.5",
		123456:  "1.235e+05",
		1e-9:    "1.000e-09",
		-2.5e-7: "-2.500e-07",
	}
	for in, want := range cases {
		if got := FormatG(in); got != want {
			t.Errorf("FormatG(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestT2SElectronProperty(t *testing.T) {
	// T2S scales inversely with electron count and linearly with time.
	f := func(wall float64, n uint16) bool {
		if wall <= 0 || wall > 1e300 || math.IsNaN(wall) || math.IsInf(wall, 0) || n == 0 {
			return true
		}
		a := T2SElectron(wall, int(n))
		b := T2SElectron(2*wall, int(n))
		return math.Abs(b-2*a) < 1e-12*math.Abs(a)+1e-300
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
