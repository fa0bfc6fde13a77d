// Package halo is the shape-agnostic ghost-exchange layer of the
// distributed spine: the three-per-axis ring protocol that internal/shard
// built for particle halos, extracted so regular-grid stencil fields (FDTD,
// TDDFT, multigrid) shard over the same cluster.Grid3D topology with the
// same determinism contract.
//
// The layer has three pieces:
//
//   - Exchanger drives the ring transfers of a partitioned axis over
//     cluster.Comm, with pooled send/receive frames (steady-state exchanges
//     allocate nothing once the frames reach their working size). The
//     both-directions ring fills both faces' ghosts; its wire order is
//     fixed — send plus-side, send minus-side, receive minus-side, receive
//     plus-side, axes ascending — which is exactly the order the particle
//     engine always used, so refactoring it onto the Exchanger was bitwise
//     neutral. The one-sided ring fills one face's ghosts: one send toward
//     one neighbor, one receive from the other.
//
//   - Field is the shape abstraction: anything that can pack its (axis,
//     side) send set into a []float64 frame and unpack the frame received
//     from that side's neighbor. The particle engine's position and
//     aux-payload halos are Fields over its rebuild-time send/slot lists;
//     GridField and GridFieldC are Fields over regular-lattice slabs.
//
//   - Domain + GridField/GridFieldC describe one rank's block of a global
//     Nx×Ny×Nz lattice: an owned extent plus ghost layers of width G on
//     every axis. Partitioned axes fill their ghosts through the Exchanger;
//     unpartitioned axes copy their own periodic images locally, so stencil
//     kernels never wrap — they read ghosts uniformly on every grid shape,
//     which is what makes sharded stencil updates bitwise identical to the
//     1-rank run: every owned cell reads bit-equal inputs through the same
//     expressions.
//
// Ghost filling per axis follows the particle protocol: side 0 faces the
// minus ring neighbor, side 1 the plus neighbor; the frame sent toward a
// neighbor carries the G owned planes adjacent to that face, and the frame
// received from a side fills that side's ghost planes. A grid refresh
// moves only its read set (Reads): per axis, the sides and components the
// stencil reads across that axis's faces. Packing, unpacking and the
// periodic self-copy all follow it, and a one-sided read set rides the
// one-sided ring. The Yee update of maxwell.Sim3D reads one side and the
// two transverse components per axis, so it moves one frame per
// partitioned axis, two thirds of each cell; the TDDFT odd sweep and
// Refresh read both sides and every component. Edge and corner
// ghosts (needed by stencils wider than a face star) arrive without extra
// neighbor pairs by forwarding: with Corners enabled, each axis's frames
// extend over the full local extent — including the ghosts earlier axes
// just delivered — exactly how the particle halo routes corner ghosts
// through face neighbors.
package halo

import (
	"fmt"

	"mlmd/internal/cluster"
)

// Domain is one rank's block of a global N[0]×N[1]×N[2] periodic lattice
// under a cluster.Grid3D decomposition: the owned extent, its global
// offset, and the ghost width shared by every field on the block.
type Domain struct {
	// N is the global lattice size per axis (cells).
	N [3]int
	// P is the rank grid shape (cluster.Grid3D.P).
	P [3]int
	// Coord is this rank's grid coordinate per axis.
	Coord [3]int
	// Own is the owned extent per axis (cells).
	Own [3]int
	// Off is the global index of the owned low corner per axis.
	Off [3]int
	// Ghost is the ghost-layer width (cells) on every axis.
	Ghost int
}

// NewDomain splits the global n lattice across g and returns rank's block.
// Each axis is divided as evenly as possible, lower coordinates taking the
// remainder. With even set, cells are dealt in aligned pairs — every
// block's offset and extent stay even, which the TDDFT even–odd pair
// propagator needs so that even-parity pairs never cross a block boundary.
// Every partitioned axis must give each rank at least ghost owned cells
// (the one-hop ghost protocol: a ghost layer comes from a single
// neighbor).
func NewDomain(g cluster.Grid3D, rank int, n [3]int, ghost int, even bool) (Domain, error) {
	if ghost < 1 {
		return Domain{}, fmt.Errorf("halo: ghost width %d < 1", ghost)
	}
	d := Domain{N: n, P: g.P, Ghost: ghost}
	d.Coord[0], d.Coord[1], d.Coord[2] = g.Coords(rank)
	for a := 0; a < 3; a++ {
		if n[a] < 1 {
			return Domain{}, fmt.Errorf("halo: axis %d has %d cells", a, n[a])
		}
		unit := 1
		units := n[a]
		if even {
			if n[a]%2 != 0 {
				return Domain{}, fmt.Errorf("halo: even-aligned split needs even dims, axis %d has %d cells", a, n[a])
			}
			unit, units = 2, n[a]/2
		}
		p := g.P[a]
		if units < p {
			return Domain{}, fmt.Errorf("halo: axis %d has %d split units for %d ranks", a, units, p)
		}
		base, rem := units/p, units%p
		c := d.Coord[a]
		cnt := base
		if c < rem {
			cnt++
		}
		off := c * base
		if c < rem {
			off += c
		} else {
			off += rem
		}
		d.Own[a] = cnt * unit
		d.Off[a] = off * unit
		if p > 1 && d.Own[a] < ghost {
			return Domain{}, fmt.Errorf("halo: axis %d rank extent %d is narrower than the ghost width %d", a, d.Own[a], ghost)
		}
	}
	return d, nil
}

// Ext returns the local storage extent per axis: owned plus a ghost layer
// on each face.
func (d Domain) Ext() [3]int {
	return [3]int{d.Own[0] + 2*d.Ghost, d.Own[1] + 2*d.Ghost, d.Own[2] + 2*d.Ghost}
}

// Len returns the number of owned cells.
func (d Domain) Len() int { return d.Own[0] * d.Own[1] * d.Own[2] }

// Partitioned reports whether axis is split across more than one rank.
func (d Domain) Partitioned(axis int) bool { return d.P[axis] > 1 }
