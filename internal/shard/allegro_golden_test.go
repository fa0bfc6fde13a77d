package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"runtime"
	"testing"
)

// TestAllegroTrajectoryGolden pins the bits of the identity oracle's 1x1x1
// Allegro reference: the CRC64-ECMA of the little-endian bits of X, then
// V, then PE after 120 steps of the 160-atom gas. The digest was taken on the per-atom tape
// driver, and the batched path must reproduce it. The radial basis is an
// exp row with the stdlib math.Exp's bits, whose amd64 block is fused on an
// FMA host and unfused otherwise (or under GODEBUG=cpu.fma=off), so the
// golden is keyed by which block this process runs; off amd64 the test
// skips.
func TestAllegroTrajectoryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the golden bits are amd64's")
	}
	// A probe argument on which the fused and unfused exp blocks differ.
	const probe = -1.5937854207655149
	want, ok := map[uint64]string{
		0x3fca00fcb8a02a25: "28a6d001dbb1efcd", // fused exp
		0x3fca00fcb8a02a26: "32d268301edb5458", // unfused exp
	}[math.Float64bits(math.Exp(probe))]
	if !ok {
		t.Skip("math.Exp is neither amd64 stdlib block")
	}
	ref := reference(t, "allegro", 120)
	n := len(ref.last()) / 3
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var b [8]byte
	for _, v := range [][]float64{ref.last()[:2*n], ref.obs[:1]} {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	if d := fmt.Sprintf("%016x", h.Sum64()); d != want {
		t.Errorf("trajectory digest %s, want %s", d, want)
	}
}
