package halo

import (
	"errors"
	"math/bits"
	"slices"
)

// ErrBadAxis reports an axis or side outside the valid range.
var ErrBadAxis = errors.New("halo: axis or side out of range")

// ErrFrameLen reports a ghost frame whose length does not match the
// receiver's expected slab size.
var ErrFrameLen = errors.New("halo: ghost frame length mismatch")

// Sides selects the ghost faces of one axis.
type Sides uint8

const (
	// Minus selects the side-0 ghosts: copies of the minus neighbor's
	// planes.
	Minus Sides = 1 << iota
	// Plus selects the side-1 ghosts: copies of the plus neighbor's
	// planes.
	Plus
	// Both selects the ghosts on both faces.
	Both = Minus | Plus
)

// AllComps selects every component of a field, however many it has.
const AllComps = ^uint64(0)

// Reads is the read set of one axis: the ghosts a stencil reads across
// that axis's faces, which a refresh must make exact. The refresh packs,
// sends, unpacks and self-copies only those; every other ghost of the
// axis keeps what it held.
type Reads struct {
	// Sides selects the ghost faces.
	Sides Sides
	// Comps selects components: bit c is component c. A field of more
	// than 64 components refreshes every one of them.
	Comps uint64
}

// allReads is a whole face refresh: both sides, every component.
var allReads = Reads{Sides: Both, Comps: AllComps}

// frameBox returns the half-open local-index box of the (axis, side)
// slab: the G owned planes adjacent to that face when packing, the G
// ghost planes on that face when unpacking. Transverse axes cover the
// owned range, except that corner-forwarding fields extend axes already
// refreshed this round (prior) over their full local extent, so edge and
// corner ghosts ride through face neighbors.
func frameBox(d Domain, ext [3]int, corners bool, prior [3]bool, axis, side int, unpack bool) (lo, hi [3]int) {
	g := d.Ghost
	for b := 0; b < 3; b++ {
		if corners && prior[b] {
			lo[b], hi[b] = 0, ext[b]
		} else {
			lo[b], hi[b] = g, g+d.Own[b]
		}
	}
	switch {
	case !unpack && side == 0:
		lo[axis], hi[axis] = g, 2*g
	case !unpack && side == 1:
		lo[axis], hi[axis] = ext[axis]-2*g, ext[axis]-g
	case unpack && side == 0:
		lo[axis], hi[axis] = 0, g
	default:
		lo[axis], hi[axis] = ext[axis]-g, ext[axis]
	}
	return lo, hi
}

// GridField is a C-component float64 field on a Domain block, stored
// z-fastest over the local extent (owned plus ghost layers on every
// axis): element s of local cell (ix,iy,iz) lives at Index(ix,iy,iz)+s.
// Ghosts exist on all three axes regardless of partitioning — ring
// exchange fills partitioned axes, periodic self-copy fills the rest —
// so stencil kernels read neighbors uniformly and never wrap. A refresh
// fills the ghosts of its read set (Reads), by default every one.
type GridField struct {
	// D is the domain block this field lives on.
	D Domain
	// C is the number of components per cell.
	C int
	// Ext is the local storage extent per axis (D.Ext()).
	Ext [3]int
	// Data holds Ext[0]*Ext[1]*Ext[2]*C values, z-fastest.
	Data []float64
	// Corners selects corner-forwarding refreshes: each axis's frames
	// extend over ghosts delivered by earlier axes in the same Refresh,
	// filling edge and corner ghosts. Face-star stencils leave it false
	// and move fewer bytes.
	Corners bool

	prior [3]bool
	// sides, drop and kept are each axis's read set in flight: the ghost
	// faces the refresh fills, the components its frames leave out (zero:
	// none) and, in ascending order, those they carry when some are left
	// out.
	sides [3]Sides
	drop  [3]uint64
	kept  [3][64]int
}

// NewGridField allocates a zeroed C-component field on d.
func NewGridField(d Domain, c int) *GridField {
	ext := d.Ext()
	return &GridField{D: d, C: c, Ext: ext, Data: make([]float64, ext[0]*ext[1]*ext[2]*c)}
}

// Index returns the Data offset of local cell (ix,iy,iz), ghosts
// included.
func (f *GridField) Index(ix, iy, iz int) int {
	return ((ix*f.Ext[1]+iy)*f.Ext[2] + iz) * f.C
}

// OwnIndex returns the Data offset of owned cell (ox,oy,oz), i.e. local
// cell (ox+G, oy+G, oz+G).
func (f *GridField) OwnIndex(ox, oy, oz int) int {
	g := f.D.Ghost
	return f.Index(ox+g, oy+g, oz+g)
}

// FrameLen returns the expected frame length for (axis, side) under the
// current refresh state.
func (f *GridField) FrameLen(axis, side int) int {
	lo, hi := frameBox(f.D, f.Ext, f.Corners, f.prior, axis, side, false)
	return (hi[0] - lo[0]) * (hi[1] - lo[1]) * (hi[2] - lo[2]) * (f.C - bits.OnesCount64(f.drop[axis]))
}

// setReads makes r the read set of axis's next frames and self-copies.
//
//mlmd:hotpath
func (f *GridField) setReads(axis int, r Reads) {
	f.sides[axis], f.drop[axis] = r.Sides, 0
	if f.C <= 64 {
		f.drop[axis] = ^r.Comps & (1<<f.C - 1)
	}
	n := 0
	for c := 0; c < f.C && f.drop[axis] != 0; c++ {
		if f.drop[axis]>>c&1 == 0 {
			f.kept[axis][n] = c
			n++
		}
	}
}

// keep returns the components axis's frames carry when its read set
// leaves some out, ascending, and nil when it leaves none out.
func (f *GridField) keep(axis int) []int {
	if f.drop[axis] == 0 {
		return nil
	}
	return f.kept[axis][:f.C-bits.OnesCount64(f.drop[axis])]
}

// Pack implements Field: it appends the G owned planes adjacent to the
// (axis, side) face, x-major z-fastest, with the components of the axis's
// read set in ascending order within each cell.
//
//mlmd:hotpath
func (f *GridField) Pack(axis, side int, buf []float64) []float64 {
	lo, hi := frameBox(f.D, f.Ext, f.Corners, f.prior, axis, side, false)
	cells := hi[2] - lo[2]
	keep := f.keep(axis)
	if keep == nil {
		for x := lo[0]; x < hi[0]; x++ {
			for y := lo[1]; y < hi[1]; y++ {
				base := f.Index(x, y, lo[2])
				buf = append(buf, f.Data[base:base+cells*f.C]...)
			}
		}
		return buf
	}
	k, n := len(buf), f.FrameLen(axis, side)
	buf = slices.Grow(buf, n)[:k+n]
	for x := lo[0]; x < hi[0]; x++ {
		for y := lo[1]; y < hi[1]; y++ {
			base := f.Index(x, y, lo[2])
			for j, c := range keep {
				strided(buf[k+j:], len(keep), f.Data[base+c:base+cells*f.C], f.C)
			}
			k += cells * len(keep)
		}
	}
	return buf
}

// Unpack implements Field: it scatters the received frame into the
// (axis, side) ghost planes. The frame length must match FrameLen; use
// UnpackChecked when the frame comes from an untrusted source.
//
//mlmd:hotpath
func (f *GridField) Unpack(axis, side int, buf []float64) {
	lo, hi := frameBox(f.D, f.Ext, f.Corners, f.prior, axis, side, true)
	cells := hi[2] - lo[2]
	keep := f.keep(axis)
	k := 0
	for x := lo[0]; x < hi[0]; x++ {
		for y := lo[1]; y < hi[1]; y++ {
			base := f.Index(x, y, lo[2])
			if keep == nil {
				copy(f.Data[base:base+cells*f.C], buf[k:k+cells*f.C])
				k += cells * f.C
				continue
			}
			for j, c := range keep {
				strided(f.Data[base+c:], f.C, buf[k+j:k+cells*len(keep)], len(keep))
			}
			k += cells * len(keep)
		}
	}
}

// strided copies every srcStride-th value of src, from the first, to
// every dstStride-th element of dst: one component of a run of cells.
//
//mlmd:hotpath
func strided(dst []float64, dstStride int, src []float64, srcStride int) {
	i := 0
	for j := 0; j < len(src); j += srcStride {
		dst[i] = src[j]
		i += dstStride
	}
}

// UnpackChecked validates axis, side, and the frame length before
// unpacking. It rejects forged frames without allocating: a bad length
// returns ErrFrameLen and leaves the field untouched.
func (f *GridField) UnpackChecked(axis, side int, buf []float64) error {
	if axis < 0 || axis > 2 || side < 0 || side > 1 {
		return ErrBadAxis
	}
	if len(buf) != f.FrameLen(axis, side) {
		return ErrFrameLen
	}
	f.Unpack(axis, side, buf)
	return nil
}

// selfGhost fills the read set's ghost faces of an unpartitioned axis
// from this rank's own periodic images: the minus ghosts copy the high
// owned planes and the plus ghosts the low ones — the planes a ring
// exchange would deliver if the axis had neighbors.
//
//mlmd:hotpath
func (f *GridField) selfGhost(axis int) {
	g := f.D.Ghost
	if f.sides[axis]&Minus != 0 {
		f.copyPlanes(axis, f.Ext[axis]-2*g, 0)
	}
	if f.sides[axis]&Plus != 0 {
		f.copyPlanes(axis, g, f.Ext[axis]-g)
	}
}

// copyPlanes copies G planes starting at srcLo along axis to dstLo, over
// the current transverse frame range and the axis's read-set components.
//
//mlmd:hotpath
func (f *GridField) copyPlanes(axis, srcLo, dstLo int) {
	lo, hi := frameBox(f.D, f.Ext, f.Corners, f.prior, axis, 0, false)
	g := f.D.Ghost
	keep := f.keep(axis)
	switch axis {
	case 0:
		for p := 0; p < g; p++ {
			for y := lo[1]; y < hi[1]; y++ {
				f.copyCells(f.Index(dstLo+p, y, lo[2]), f.Index(srcLo+p, y, lo[2]), hi[2]-lo[2], f.C, keep)
			}
		}
	case 1:
		for x := lo[0]; x < hi[0]; x++ {
			for p := 0; p < g; p++ {
				f.copyCells(f.Index(x, dstLo+p, lo[2]), f.Index(x, srcLo+p, lo[2]), hi[2]-lo[2], f.C, keep)
			}
		}
	default:
		// One cell of each row of an x plane: the cells are a row apart.
		for x := lo[0]; x < hi[0]; x++ {
			for p := 0; p < g; p++ {
				f.copyCells(f.Index(x, lo[1], dstLo+p), f.Index(x, lo[1], srcLo+p), hi[1]-lo[1], f.Ext[2]*f.C, keep)
			}
		}
	}
}

// copyCells copies n cells stride floats apart from Data offset src to
// dst: the components keep lists, every one when keep is nil.
//
//mlmd:hotpath
func (f *GridField) copyCells(dst, src, n, stride int, keep []int) {
	switch {
	case keep != nil:
		for _, c := range keep {
			strided(f.Data[dst+c:], stride, f.Data[src+c:src+(n-1)*stride+c+1], stride)
		}
	case stride == f.C:
		copy(f.Data[dst:dst+n*f.C], f.Data[src:src+n*f.C])
	default:
		for range n {
			copy(f.Data[dst:dst+f.C], f.Data[src:src+f.C])
			dst += stride
			src += stride
		}
	}
}

// Refresh fills every ghost layer: one ring exchange per partitioned
// axis (ascending), periodic self-copy otherwise, both sides and every
// component. With Corners set, each axis forwards the ghosts delivered by
// earlier axes, so afterwards every ghost cell — faces, edges, corners —
// holds its owner's value.
//
//mlmd:hotpath
func (f *GridField) Refresh(ex *Exchanger) {
	f.prior = [3]bool{}
	for a := 0; a < 3; a++ {
		f.post(ex, a, allReads)
		f.FinishAxis(ex, a)
		f.prior[a] = true
	}
	f.prior = [3]bool{}
}

// RefreshAxis fills both faces' ghosts of one axis, every component (no
// corner forwarding) — what a single-axis sweep like the TDDFT odd-pair
// update needs between sub-steps.
func (f *GridField) RefreshAxis(ex *Exchanger, axis int) {
	f.PostAxis(ex, axis, allReads)
	f.FinishAxis(ex, axis)
}

// PostAxis starts a face-ghost refresh of one axis that makes the read set
// r exact: on a partitioned axis it posts the sends — a both-directions
// ring for both sides, a one-sided ring for one — and on an unpartitioned
// one it completes the periodic self-copy at once. It returns without
// waiting, so callers can overlap interior compute before FinishAxis.
// Face frames only — corner forwarding requires the sequential Refresh.
//
//mlmd:hotpath
func (f *GridField) PostAxis(ex *Exchanger, axis int, r Reads) {
	f.prior = [3]bool{}
	f.post(ex, axis, r)
}

//mlmd:hotpath
func (f *GridField) post(ex *Exchanger, axis int, r Reads) {
	f.setReads(axis, r)
	switch {
	case !f.D.Partitioned(axis):
		f.selfGhost(axis)
	case r.Sides == Both:
		ex.Post(f, axis)
	case r.Sides == Minus:
		ex.PostSide(f, axis, 0)
	case r.Sides == Plus:
		ex.PostSide(f, axis, 1)
	}
}

// FinishAxis completes a PostAxis: it receives and scatters the ghost
// frames of the posted read set (a no-op for unpartitioned axes).
//
//mlmd:hotpath
func (f *GridField) FinishAxis(ex *Exchanger, axis int) {
	if !f.D.Partitioned(axis) {
		return
	}
	switch f.sides[axis] {
	case Both:
		ex.Finish(f, axis)
	case Minus:
		ex.FinishSide(f, axis, 0)
	case Plus:
		ex.FinishSide(f, axis, 1)
	}
}

// PackOwned appends every owned cell, x-major z-fastest — the gather
// frame format GridEngine uses to reassemble a global field on rank 0.
func (f *GridField) PackOwned(buf []float64) []float64 {
	g := f.D.Ghost
	run := f.D.Own[2] * f.C
	for x := 0; x < f.D.Own[0]; x++ {
		for y := 0; y < f.D.Own[1]; y++ {
			base := f.Index(x+g, y+g, g)
			buf = append(buf, f.Data[base:base+run]...)
		}
	}
	return buf
}
