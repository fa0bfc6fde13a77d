package core

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"runtime"
	"testing"

	"mlmd/internal/grid"
)

// TestDCMESHGolden pins the bits of the qd.dcmesh workload at its tiny
// size: Ψ(0) from the imaginary-time solve of every domain, then three MD
// steps of driven sub-steps with the FP64 scissor and the surface-hopping
// hand-off. A change of arithmetic anywhere under NewDCMESH or MDStep moves
// this CRC; a change that only reorders independent work does not.
//
// The light pulse's envelope is a math.Exp, whose amd64 stdlib block is
// fused on an FMA host and unfused otherwise (or under GODEBUG=cpu.fma=off),
// so the golden is keyed by which block this process runs; off amd64 the
// arithmetic may fuse elsewhere too, and the test skips.
func TestDCMESHGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden bits are amd64's")
	}
	// A probe argument on which the fused and unfused exp blocks differ.
	const probe = -1.5937854207655149
	golden := map[uint64]uint64{
		0x3fca00fcb8a02a25: 0xdb683fbd7cc2147b, // fused exp
		0x3fca00fcb8a02a26: 0xc1de1036c81b7b4c, // unfused exp
	}[math.Float64bits(math.Exp(probe))]
	if golden == 0 {
		t.Skip("math.Exp is neither amd64 stdlib block")
	}
	cfg := DefaultDCMESHConfig()
	cfg.Global = grid.NewCubic(8, 0.8)
	cfg.Dx, cfg.Dy, cfg.Dz = 2, 1, 1
	cfg.Norb = 4
	cfg.NQD = 4
	cfg.GroundIters = 20
	cfg.NonlocalDelta = complex(0, 1e-6)
	m, err := NewDCMESH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m.MDStep()
	}
	tab := crc64.MakeTable(crc64.ECMA)
	var crc uint64
	var b [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		crc = crc64.Update(crc, tab, b[:])
	}
	for _, d := range m.Domains {
		for _, z := range d.Psi.Data {
			put(real(z))
			put(imag(z))
		}
		for _, f := range d.SH.F {
			put(f)
		}
	}
	if crc != golden {
		t.Errorf("CRC64 of Ψ and the occupations %#016x, golden %#016x", crc, golden)
	}
}
