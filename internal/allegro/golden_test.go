package allegro

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"runtime"
	"testing"

	"mlmd/internal/par"
)

// bitsDigest is the CRC64-ECMA of the little-endian IEEE-754 bits of each
// slice in turn.
func bitsDigest(vs ...[]float64) uint64 {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var b [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestAllegroForcesGolden pins the bits of the global force path: the
// digest of E then F from ComputeForces on the distorted lattice. The path
// is the two-phase canonical assembly, so every worker count and block size
// must hit the one digest. The radial basis is an exp row, whose bits are
// the stdlib math.Exp's: its amd64 block is fused on an FMA host and
// unfused otherwise (or under GODEBUG=cpu.fma=off), so the golden is keyed
// by which block this process runs, and the test skips off amd64.
func TestAllegroForcesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden bits are amd64's")
	}
	// A probe argument on which the fused and unfused exp blocks differ.
	const probe = -1.5937854207655149
	want, ok := map[uint64]string{
		0x3fca00fcb8a02a25: "2297e066f2a0ae52", // fused exp
		0x3fca00fcb8a02a26: "5744d18c9e042b69", // unfused exp
	}[math.Float64bits(math.Exp(probe))]
	if !ok {
		t.Skip("math.Exp is neither amd64 stdlib block")
	}
	sys := distortedLattice(t)
	for _, workers := range []int{1, 4} {
		prev := par.SetWorkers(workers)
		for _, block := range []int{1, 7, 64, 0} {
			m, err := NewModel(testSpec(), []int{10, 10}, 5)
			if err != nil {
				t.Fatal(err)
			}
			m.BlockSize = block
			e := m.ComputeForces(sys)
			if got := fmt.Sprintf("%016x", bitsDigest([]float64{e}, sys.F)); got != want {
				t.Errorf("workers=%d block=%d: digest %s, want %s", workers, block, got, want)
			}
		}
		par.SetWorkers(prev)
	}
}
