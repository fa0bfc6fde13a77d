package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"testing"
)

// TestAllegroTrajectoryGolden pins the bits of the identity oracle's 1x1x1
// Allegro reference: the CRC64-ECMA of the little-endian bits of X, then
// V, then PE after 120 steps of the 160-atom gas. The digest was taken on the per-atom tape
// driver, and the batched path must reproduce it.
func TestAllegroTrajectoryGolden(t *testing.T) {
	const want = "28a6d001dbb1efcd"
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
