package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"testing"
)

// TestAllegroTrajectoryGolden pins the bits of the 1-rank Allegro
// trajectory that every Allegro identity matrix compares against: the
// CRC64-ECMA of the little-endian bits of X, then V, then PE after 120
// steps of the 160-atom gas. The digest was taken on the per-atom tape
// driver, and the batched path must reproduce it.
func TestAllegroTrajectoryGolden(t *testing.T) {
	const want = "28a6d001dbb1efcd"
	sys, model := newAllegroFixture(t, 160, 12.0)
	sys.InitVelocities(3e-3, 4)
	cfg := Config{
		Cutoff: model.Spec.Cutoff, Skin: 0.3,
		NewFF: AllegroFactory(model),
	}
	got, res, _ := runGridTrajectory(t, sys, cfg, [3]int{1, 1, 1}, 120, 1.0, nil)
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var b [8]byte
	for _, v := range [][]float64{got.X, got.V, {res.PE}} {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	if d := fmt.Sprintf("%016x", h.Sum64()); d != want {
		t.Errorf("trajectory digest %s, want %s", d, want)
	}
}
