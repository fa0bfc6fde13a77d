package shard

import (
	"fmt"

	"mlmd/internal/ferro"
)

// BlendEffHam is the sharded counterpart of xsnn.Blend over two
// ferro.EffectiveHamiltonian force fields (ground state and excited
// state): F_i = (1−w_i)·F_GS,i + w_i·F_XS,i with per-atom weights from the
// engine (Eq. 4 of the paper). It reproduces the serial blend's arithmetic
// operation-for-operation — soft-mode well and coupling terms accumulate in
// the same order, with the same expression shapes — so a sharded XS-NNQMD
// trajectory is bitwise identical to the unsharded one for every rank
// count.
//
// The effective Hamiltonian's interaction stencil is one unit cell (the
// soft-mode coupling reads the six neighbor cells' Ti atoms), so the
// engine's cutoff must exceed the largest Ti–Ti nearest-neighbor distance
// (lattice constant plus off-centering drift); ~1.3 lattice constants is a
// safe choice. A missing neighbor Ti in the halo panics rather than
// silently corrupting forces.
type BlendEffHam struct {
	lat    *ferro.Lattice
	gs, xs *ferro.EffectiveHamiltonian
}

// BlendEffHamFactory validates the lattice layout (5 atoms per cell,
// Pb Ti O O O, cell-major — the order ferro.NewLattice builds) and returns
// a Config.NewFF producing per-rank blended evaluators. gs and xs must
// share lat.
func BlendEffHamFactory(lat *ferro.Lattice, gs, xs *ferro.EffectiveHamiltonian) (func(rank int) RankFF, error) {
	if gs.Lat != lat || xs.Lat != lat {
		return nil, fmt.Errorf("shard: GS/XS hamiltonians must share the lattice")
	}
	for c := 0; c < lat.NumCells(); c++ {
		if lat.TiIndex[c] != c*ferro.AtomsPerCell+1 {
			return nil, fmt.Errorf("shard: lattice cell %d is not in canonical Pb,Ti,O,O,O order", c)
		}
	}
	return func(int) RankFF { return &BlendEffHam{lat: lat, gs: gs, xs: xs} }, nil
}

// PartialLen implements RankFF: [E_GS, E_XS, Σw].
func (b *BlendEffHam) PartialLen() int { return 3 }

// NeedsNeighborList implements RankFF: the stencil is resolved by global-id
// lookup of the neighbor cells' Ti atoms, not by a distance list.
func (b *BlendEffHam) NeedsNeighborList() bool { return false }

// ComputeBlock implements BlockFF: the blended forces and energy terms of
// owned atoms [lo, hi) only, accumulated into partial. The lattice stencil
// (one cell) is far inside the engine halo, so the interior block's lookups
// always resolve to owned atoms — asserted below, because an interior-pass
// ghost dereference would silently read a stale position.
func (b *BlendEffHam) ComputeBlock(v *View, lo, hi int, partial []float64) {
	lat, gs, xs := b.lat, b.gs, b.xs
	px, py, pz := v.Periods()
	var eGS, eXS, wSum float64
	for i := lo; i < hi; i++ {
		g := int(v.ID[i])
		var w float64
		if v.Weights != nil {
			w = v.Weights[g]
		}
		wSum += w
		c := g / ferro.AtomsPerCell
		if g%ferro.AtomsPerCell == 1 { // the cell's Ti: well + coupling
			sx := px.MinImage(v.X[3*i] - lat.R0[3*g])
			sy := py.MinImage(v.X[3*i+1] - lat.R0[3*g+1])
			sz := pz.MinImage(v.X[3*i+2] - lat.R0[3*g+2])
			s2 := sx*sx + sy*sy + sz*sz
			nb := lat.NeighborCells(c)
			var ns [6][3]float64
			for k, c2 := range nb {
				tg := lat.TiIndex[c2]
				li := v.Lookup(int32(tg))
				if li < 0 {
					panic(fmt.Sprintf("shard: rank %d misses neighbor Ti of cell %d (gid %d): cutoff too small for the lattice stencil", v.Rank, c2, tg))
				}
				if hi <= v.NInt && int(li) >= v.NOwn {
					panic(fmt.Sprintf("shard: rank %d interior atom %d dereferences ghost Ti %d — interior margin violated", v.Rank, i, tg))
				}
				ns[k][0] = px.MinImage(v.X[3*li] - lat.R0[3*tg])
				ns[k][1] = py.MinImage(v.X[3*li+1] - lat.R0[3*tg+1])
				ns[k][2] = pz.MinImage(v.X[3*li+2] - lat.R0[3*tg+2])
			}
			fgx, fgy, fgz, peg := tiForce(gs, c, sx, sy, sz, s2, &ns)
			fxx, fxy, fxz, pex := tiForce(xs, c, sx, sy, sz, s2, &ns)
			eGS += peg
			eXS += pex
			v.F[3*i] = (1-w)*fgx + w*fxx
			v.F[3*i+1] = (1-w)*fgy + w*fxy
			v.F[3*i+2] = (1-w)*fgz + w*fxz
		} else { // host-cage atom
			dx := px.MinImage(v.X[3*i] - lat.R0[3*g])
			dy := py.MinImage(v.X[3*i+1] - lat.R0[3*g+1])
			dz := pz.MinImage(v.X[3*i+2] - lat.R0[3*g+2])
			eGS += 0.5 * gs.KHost * (dx*dx + dy*dy + dz*dz)
			eXS += 0.5 * xs.KHost * (dx*dx + dy*dy + dz*dz)
			fgx, fgy, fgz := -(gs.KHost * dx), -(gs.KHost * dy), -(gs.KHost * dz)
			fxx, fxy, fxz := -(xs.KHost * dx), -(xs.KHost * dy), -(xs.KHost * dz)
			v.F[3*i] = (1-w)*fgx + w*fxx
			v.F[3*i+1] = (1-w)*fgy + w*fxy
			v.F[3*i+2] = (1-w)*fgz + w*fxz
		}
	}
	partial[0] += eGS
	partial[1] += eXS
	partial[2] += wSum
}

// tiForce evaluates one effective Hamiltonian's force on a Ti atom and the
// cell's energy terms (well plus the +x,+y,+z half of the coupling, so each
// bond is counted once globally). The expression shapes replicate
// ferro.EffectiveHamiltonian.ComputeForces bit-for-bit: the force is
// fl(fl(coef·s) + fl(J·g)) exactly like the serial code's two
// accumulations.
func tiForce(eh *ferro.EffectiveHamiltonian, c int, sx, sy, sz, s2 float64, ns *[6][3]float64) (fx, fy, fz, pe float64) {
	a := eh.AEff(c)
	pe = a*s2 + eh.B*s2*s2
	for k := 0; k < 6; k += 2 { // +x, +y, +z neighbors
		pe -= eh.J * (sx*ns[k][0] + sy*ns[k][1] + sz*ns[k][2])
	}
	coef := -(2*a + 4*eh.B*s2)
	var gx, gy, gz float64
	for k := 0; k < 6; k++ {
		gx += ns[k][0]
		gy += ns[k][1]
		gz += ns[k][2]
	}
	fx = coef*sx + eh.J*gx
	fy = coef*sy + eh.J*gy
	fz = coef*sz + eh.J*gz
	return
}

// Energy implements RankFF, replicating xsnn.Blend's mean-weight blended
// energy (1−w̄)E_GS + w̄·E_XS.
func (b *BlendEffHam) Energy(v *View, total []float64) float64 {
	wMean := total[2] / float64(v.NGlobal)
	return (1-wMean)*total[0] + wMean*total[1]
}
