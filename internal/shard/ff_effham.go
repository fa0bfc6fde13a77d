package shard

import (
	"fmt"

	"mlmd/internal/ferro"
	"mlmd/internal/xsnn"
)

// BlendEffHam is the sharded counterpart of xsnn.Blend over two
// ferro.EffectiveHamiltonian force fields (ground state and excited
// state): F_i = (1−w_i)·F_GS,i + w_i·F_XS,i with per-atom weights from the
// engine (Eq. 4 of the paper). It only gathers each owned atom's inputs —
// its site displacement and, for a Ti, the six neighbor cells' soft modes
// — and calls the law the serial code calls (ferro's TiForce and
// CageForce, xsnn's BlendForce and BlendEnergy), so a sharded XS-NNQMD
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
	lat := b.lat
	px, py, pz := v.Periods()
	var eGS, eXS, wSum float64
	for i := lo; i < hi; i++ {
		g := int(v.ID[i])
		var w float64
		if v.Weights != nil {
			w = v.Weights[g]
		}
		wSum += w
		dx := px.MinImage(v.X[3*i] - lat.R0[3*g])
		dy := py.MinImage(v.X[3*i+1] - lat.R0[3*g+1])
		dz := pz.MinImage(v.X[3*i+2] - lat.R0[3*g+2])
		var fgx, fgy, fgz, eg, fxx, fxy, fxz, ex float64
		if g%ferro.AtomsPerCell == 1 { // the cell's Ti
			var ns [6][3]float64
			for k, c2 := range lat.NeighborCells(g / ferro.AtomsPerCell) {
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
			fgx, fgy, fgz, eg = b.gs.TiForce(dx, dy, dz, &ns)
			fxx, fxy, fxz, ex = b.xs.TiForce(dx, dy, dz, &ns)
		} else {
			fgx, fgy, fgz, eg = b.gs.CageForce(dx, dy, dz)
			fxx, fxy, fxz, ex = b.xs.CageForce(dx, dy, dz)
		}
		eGS += eg
		eXS += ex
		v.F[3*i] = xsnn.BlendForce(w, fgx, fxx)
		v.F[3*i+1] = xsnn.BlendForce(w, fgy, fxy)
		v.F[3*i+2] = xsnn.BlendForce(w, fgz, fxz)
	}
	partial[0] += eGS
	partial[1] += eXS
	partial[2] += wSum
}

// Energy implements RankFF: xsnn.BlendEnergy of the summed partials.
func (b *BlendEffHam) Energy(v *View, total []float64) float64 {
	return xsnn.BlendEnergy(total[0], total[1], total[2], v.NGlobal)
}
