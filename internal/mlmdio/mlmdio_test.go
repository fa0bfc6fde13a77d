package mlmdio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mlmd/internal/md"
	"mlmd/internal/units"
)

// TestWriteXYZBytes pins the extended-XYZ frame byte for byte: atom
// count, lattice in Angstrom, species names with "X" past SpeciesNames,
// positions in Angstrom.
func TestWriteXYZBytes(t *testing.T) {
	sys, err := md.NewSystem(2, units.Bohr(4), units.Bohr(5), units.Bohr(6))
	if err != nil {
		t.Fatal(err)
	}
	copy(sys.X, []float64{units.Bohr(1.5), 0, units.Bohr(-2.25), units.Bohr(0.5), units.Bohr(3), units.Bohr(4)})
	sys.Type[0], sys.Type[1] = 0, len(SpeciesNames)
	var buf bytes.Buffer
	if err := WriteXYZ(&buf, sys, "step=1"); err != nil {
		t.Fatal(err)
	}
	want := "2\n" +
		"Lattice=\"4.000000 0 0 0 5.000000 0 0 0 6.000000\" step=1\n" +
		"Pb     1.50000000     0.00000000    -2.25000000\n" +
		"X      0.50000000     3.00000000     4.00000000\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteXYZ wrote\n%q\nwant\n%q", got, want)
	}
}

func TestSystemCheckpointRoundTrip(t *testing.T) {
	sys, _ := md.NewSystem(10, 5, 6, 7)
	rng := rand.New(rand.NewSource(1))
	for i := range sys.X {
		sys.X[i] = rng.Float64() * 5
		sys.V[i] = rng.NormFloat64()
		sys.F[i] = rng.NormFloat64()
	}
	for i := range sys.Mass {
		sys.Mass[i] = 1 + rng.Float64()
		sys.Type[i] = i % 3
	}
	var buf bytes.Buffer
	if err := SaveSystem(&buf, sys); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != sys.N || got.Lx != sys.Lx || got.Lz != sys.Lz {
		t.Fatal("geometry not preserved")
	}
	for i := range sys.X {
		if got.X[i] != sys.X[i] || got.V[i] != sys.V[i] || got.F[i] != sys.F[i] {
			t.Fatal("state not preserved")
		}
	}
	for i := range sys.Mass {
		if got.Mass[i] != sys.Mass[i] || got.Type[i] != sys.Type[i] {
			t.Fatal("atom metadata not preserved")
		}
	}
}

func TestLoadErrorsOnGarbage(t *testing.T) {
	if _, err := LoadSystem(strings.NewReader("not a gob")); err == nil {
		t.Error("garbage system accepted")
	}
}
