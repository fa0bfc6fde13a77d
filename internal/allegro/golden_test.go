package allegro

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
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
// digest of E then F from ComputeForces on the distorted lattice, for every
// block size and worker count. The block size sets the force-accumulation
// grouping, so block 1 and block 7 differ from the whole-system block; the
// worker count sets the part split, so workers 1 and 4 differ too. The
// digests were taken on the per-atom tape driver, and the batched path
// must reproduce them.
func TestAllegroForcesGolden(t *testing.T) {
	want := map[int][4]string{ // workers → BlockSize 1, 7, 64, 0
		1: {"b32e0ac8912839f8", "ad4ccab123aa5547", "81db1387cc4d40fc", "81db1387cc4d40fc"},
		4: {"b32e0ac8912839f8", "adce3bb75bfb44ef", "546fec9d6861b4ab", "546fec9d6861b4ab"},
	}
	sys := distortedLattice(t)
	for _, workers := range []int{1, 4} {
		prev := par.SetWorkers(workers)
		for k, block := range []int{1, 7, 64, 0} {
			m, err := NewModel(testSpec(), []int{10, 10}, 5)
			if err != nil {
				t.Fatal(err)
			}
			m.BlockSize = block
			e := m.ComputeForces(sys)
			got := fmt.Sprintf("%016x", bitsDigest([]float64{e}, sys.F))
			if got != want[workers][k] {
				t.Errorf("workers=%d block=%d: digest %s, want %s", workers, block, got, want[workers][k])
			}
		}
		par.SetWorkers(prev)
	}
}
