package tddft

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"runtime"
	"testing"

	"mlmd/internal/grid"
)

var goldenTable = crc64.MakeTable(crc64.ECMA)

// crcFloats folds the Float64bits of xs, little-endian, into crc.
func crcFloats(crc uint64, xs ...float64) uint64 {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		crc = crc64.Update(crc, goldenTable, b[:])
	}
	return crc
}

// crcField folds every amplitude of w, real part first, into crc.
func crcField(crc uint64, w *grid.WaveField) uint64 {
	for _, z := range w.Data {
		crc = crcFloats(crc, real(z), imag(z))
	}
	return crc
}

// TestGroundStateGolden pins the bits of the imaginary-time solve and of the
// observables built on it, so a change of the arithmetic under them — the
// order of a sum, a fused product, a dropped 0·x term — shows as a failure
// here rather than as a moved benchmark digest. Three cases: an odd orbital
// count (the vector kernels' tail), a nonzero vector potential (a Peierls
// phase that is not 1+0i), and the AoS layout through Gram–Schmidt, the
// energy and the survival projection.
//
// The bits are those of an unfused float64 pipeline (amd64, 386); arm64's
// compiler fuses a + x·y on its own, so other architectures skip.
func TestGroundStateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		t.Skip("the golden bits are those of an unfused pipeline")
	}
	g := grid.NewCubic(8, 0.8)
	solve := func(norb int, ax float64) (*Hamiltonian, *grid.WaveField, []float64) {
		h := NewHamiltonian(g, grid.Order2)
		HarmonicPotential(g, 0.04, h.Vloc)
		h.Ax = ax
		w, e := GroundState(h, norb, 30, 7)
		return h, w, e
	}
	cases := []struct {
		name string
		want uint64
		run  func() uint64
	}{
		{"norb5", 0xfc349c1b77be262f, func() uint64 {
			_, w, e := solve(5, 0)
			return crcFloats(crcField(0, w), e...)
		}},
		{"peierls", 0x7250cb0f5fc0bc29, func() uint64 {
			_, w, e := solve(4, 0.3)
			return crcFloats(crcField(0, w), e...)
		}},
		{"aos", 0xb3c87b9367f60677, func() uint64 {
			h, w, _ := solve(3, 0.3)
			aos := w.ToLayout(grid.LayoutAoS)
			// Perturb so Gram–Schmidt has projections to remove.
			for i := range aos.Data {
				aos.Data[i] += complex(1e-3*float64(i%7), -1e-3*float64(i%5))
			}
			aos.GramSchmidt()
			crc := crcField(0, aos)
			occ := []float64{1, 1, 0}
			crc = crcFloats(crc, TotalEnergy(h, aos, occ))
			surv := make([]float64, 3)
			ProjectOccupations(surv, w, aos)
			return crcFloats(crc, surv...)
		}},
	}
	for _, c := range cases {
		if got := c.run(); got != c.want {
			t.Errorf("%s: CRC64 %#016x, golden %#016x", c.name, got, c.want)
		}
	}
}
