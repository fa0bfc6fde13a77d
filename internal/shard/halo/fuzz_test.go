package halo_test

import (
	"math"
	"testing"

	"mlmd/internal/cluster"
	"mlmd/internal/shard/halo"
)

// FuzzFieldPackUnpack fuzzes the ghost-frame codec on arbitrary block
// shapes: a packed (axis, side) frame must unpack into the matching ghost
// slab bit-exactly (for both the float64 and the complex128 field, whose
// wire format is the (real, imag) pair split), a read set's frame must be
// the whole frame's elements of the components it names and unpack into
// those alone, and UnpackChecked must reject every forged frame length
// without touching the field and without allocating.
func FuzzFieldPackUnpack(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), uint8(5), uint8(1), uint8(2), uint8(0), uint8(0), uint8(7), uint8(6))
	f.Add(uint64(99), uint8(6), uint8(6), uint8(6), uint8(2), uint8(1), uint8(2), uint8(1), uint8(0), uint8(5))
	f.Add(uint64(7), uint8(2), uint8(8), uint8(3), uint8(1), uint8(3), uint8(1), uint8(1), uint8(200), uint8(3))
	grid, err := cluster.NewGrid3D(1, 1, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nx, ny, nz, ghost, comp, axis8, side8, forge, comps8 uint8) {
		n := [3]int{2 + int(nx%7), 2 + int(ny%7), 2 + int(nz%7)}
		g := 1 + int(ghost%2)
		c := 1 + int(comp%3)
		axis := int(axis8 % 3)
		side := int(side8 % 2)
		d, err := halo.NewDomain(grid, 0, n, g, false)
		if err != nil {
			t.Skip()
		}

		fl := halo.NewGridField(d, c)
		rng := seed
		next := func() float64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return math.Float64frombits(0x3FF0000000000000 | rng>>12) // [1,2)
		}
		for i := range fl.Data {
			fl.Data[i] = next()
		}
		frame := fl.Pack(axis, side, nil)
		if len(frame) != fl.FrameLen(axis, side) {
			t.Fatalf("pack emitted %d floats, FrameLen says %d", len(frame), fl.FrameLen(axis, side))
		}
		dst := halo.NewGridField(d, c)
		if err := dst.UnpackChecked(axis, side, frame); err != nil {
			t.Fatalf("valid frame rejected: %v", err)
		}
		// Round trip: the ghost slab just filled, walked in pack order,
		// must reproduce the frame bit for bit.
		checkFrame := packGhostSlab(dst, axis, side)
		if len(checkFrame) != len(frame) {
			t.Fatalf("ghost slab has %d floats, frame %d", len(checkFrame), len(frame))
		}
		for i := range frame {
			if math.Float64bits(checkFrame[i]) != math.Float64bits(frame[i]) {
				t.Fatalf("round trip bit mismatch at %d", i)
			}
		}

		// Read-set frames: the frame packed for either side under a
		// component mask is the whole frame with the other components left
		// out, and it unpacks into those components of the ghost slab
		// alone.
		comps := uint64(comps8)
		for s := 0; s < 2; s++ {
			fl.SetReads(axis, halo.Reads{Sides: halo.Both, Comps: halo.AllComps})
			full := fl.Pack(axis, s, nil)
			reads := halo.Reads{Sides: halo.Sides(1 + s), Comps: comps}
			fl.SetReads(axis, reads)
			sub := fl.Pack(axis, s, nil)
			if len(sub) != fl.FrameLen(axis, s) {
				t.Fatalf("read-set pack emitted %d floats, FrameLen says %d", len(sub), fl.FrameLen(axis, s))
			}
			var want []float64
			for i, v := range full {
				if comps>>(i%c)&1 != 0 {
					want = append(want, v)
				}
			}
			if len(sub) != len(want) {
				t.Fatalf("side %d comps %b: read-set frame has %d floats, the whole frame's named ones %d", s, comps, len(sub), len(want))
			}
			for i := range want {
				if math.Float64bits(sub[i]) != math.Float64bits(want[i]) {
					t.Fatalf("side %d comps %b: read-set frame differs from the whole frame at %d", s, comps, i)
				}
			}
			sdst := halo.NewGridField(d, c)
			for i := range sdst.Data {
				sdst.Data[i] = math.NaN()
			}
			sdst.SetReads(axis, reads)
			sdst.Unpack(axis, s, sub)
			written := 0
			for _, v := range sdst.Data {
				if !math.IsNaN(v) {
					written++
				}
			}
			if written != len(sub) {
				t.Fatalf("side %d comps %b: unpacking a %d-float frame wrote %d elements", s, comps, len(sub), written)
			}
			for i, v := range packGhostSlab(sdst, axis, s) {
				named := comps>>(i%c)&1 != 0
				if named && math.Float64bits(v) != math.Float64bits(full[i]) || !named && !math.IsNaN(v) {
					t.Fatalf("side %d comps %b: ghost slab element %d = %v after unpack, whole frame %v", s, comps, i, v, full[i])
				}
			}
		}
		fl.SetReads(axis, halo.Reads{Sides: halo.Both, Comps: halo.AllComps})

		// Complex codec round trip on the same block.
		fc := halo.NewGridFieldC(d, c)
		for i := range fc.Data {
			fc.Data[i] = complex(next(), -next())
		}
		cframe := fc.Pack(axis, side, nil)
		if len(cframe) != fc.FrameLen(axis, side) {
			t.Fatalf("complex pack emitted %d floats, FrameLen says %d", len(cframe), fc.FrameLen(axis, side))
		}
		// The wire format: the (real, imag) expansion of the packed slab,
		// walked in complex units, bit for bit.
		want := expandOwnedSlabC(fc, axis, side)
		if len(want) != len(cframe) {
			t.Fatalf("complex frame has %d floats, the slab expands to %d", len(cframe), len(want))
		}
		for i := range want {
			if math.Float64bits(cframe[i]) != math.Float64bits(want[i]) {
				t.Fatalf("complex frame differs from the (real, imag) expansion at %d", i)
			}
		}
		cdst := halo.NewGridFieldC(d, c)
		if err := cdst.UnpackChecked(axis, side, cframe); err != nil {
			t.Fatalf("valid complex frame rejected: %v", err)
		}

		// Forged lengths: any length other than FrameLen must be rejected
		// with ErrFrameLen, leave the field untouched, and allocate
		// nothing.
		forged := make([]float64, (len(frame)+int(forge)+1)%(2*len(frame)+3))
		if len(forged) == len(frame) {
			forged = forged[:len(frame)/2]
		}
		before := append([]float64(nil), dst.Data...)
		if avg := testing.AllocsPerRun(3, func() {
			if err := dst.UnpackChecked(axis, side, forged); err != halo.ErrFrameLen {
				panic("forged frame accepted")
			}
		}); avg != 0 {
			t.Fatalf("rejecting a forged frame allocates %.1f objects", avg)
		}
		for i := range before {
			if math.Float64bits(before[i]) != math.Float64bits(dst.Data[i]) {
				t.Fatalf("forged frame mutated the field at %d", i)
			}
		}
		if err := fc.UnpackChecked(axis, side, forged); err != halo.ErrFrameLen && len(forged) != fc.FrameLen(axis, side) {
			t.Fatalf("complex forged frame: got %v", err)
		}
	})
}

// packGhostSlab walks the (axis, side) ghost slab of f in pack order and
// returns its values — the mirror of Unpack for round-trip checks.
func packGhostSlab(f *halo.GridField, axis, side int) []float64 {
	g := f.D.Ghost
	var lo, hi [3]int
	for b := 0; b < 3; b++ {
		lo[b], hi[b] = g, g+f.D.Own[b]
	}
	if side == 0 {
		lo[axis], hi[axis] = 0, g
	} else {
		lo[axis], hi[axis] = f.Ext[axis]-g, f.Ext[axis]
	}
	var out []float64
	for x := lo[0]; x < hi[0]; x++ {
		for y := lo[1]; y < hi[1]; y++ {
			base := f.Index(x, y, lo[2])
			out = append(out, f.Data[base:base+(hi[2]-lo[2])*f.C]...)
		}
	}
	return out
}

// expandOwnedSlabC walks the G owned planes of f adjacent to the (axis,
// side) face in pack order, in complex units, and returns each value as
// its (real(v), imag(v)) pair — the wire format of the complex field.
func expandOwnedSlabC(f *halo.GridFieldC, axis, side int) []float64 {
	g := f.D.Ghost
	var lo, hi [3]int
	for b := 0; b < 3; b++ {
		lo[b], hi[b] = g, g+f.D.Own[b]
	}
	if side == 0 {
		lo[axis], hi[axis] = g, 2*g
	} else {
		lo[axis], hi[axis] = f.Ext[axis]-2*g, f.Ext[axis]-g
	}
	var out []float64
	for x := lo[0]; x < hi[0]; x++ {
		for y := lo[1]; y < hi[1]; y++ {
			base := f.Index(x, y, lo[2])
			for _, v := range f.Data[base : base+(hi[2]-lo[2])*f.C] {
				out = append(out, real(v), imag(v))
			}
		}
	}
	return out
}
