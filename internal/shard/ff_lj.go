package shard

import "mlmd/internal/md"

// LJ is the canonical-order Lennard-Jones rank force field: a thin adaptor
// that runs md.LennardJones's row loop over the rank's owned rows. Each
// owned atom's force is Σ_j f(i,j) over its full neighbor row in ascending
// global-id order, evaluated from raw global coordinates, so per the package
// determinism contract P-rank trajectories are bitwise identical to the
// 1-rank run for every grid shape — and to unsharded md.LennardJones. The
// potential energy is accumulated as ½u(i,j) per directed pair, summed in
// fixed chunk order.
//
// LJ implements BlockFF, so the engine evaluates its interior atoms while
// the halo exchange is in flight; the split is bitwise neutral for forces
// (each atom's force is a self-contained row sum) and perturbs only the
// chunk grouping of the energy partial.
type LJ struct {
	lj md.LennardJones
}

// LJFactory returns a Config.NewFF for per-rank LJ fields.
func LJFactory(epsilon, sigma float64) func(rank int) RankFF {
	return func(int) RankFF { return &LJ{lj: md.LennardJones{Epsilon: epsilon, Sigma: sigma}} }
}

// PartialLen implements RankFF.
func (lj *LJ) PartialLen() int { return 1 }

// NeedsNeighborList implements RankFF.
func (lj *LJ) NeedsNeighborList() bool { return true }

// ComputeBlock implements BlockFF: forces and energy terms of owned atoms
// [lo, hi) only, accumulated into partial.
func (lj *LJ) ComputeBlock(v *View, lo, hi int, partial []float64) {
	lj.lj.NL = v.NL
	partial[0] += lj.lj.ComputeRows(v.Sys, lo, hi)
}

// Energy implements RankFF.
func (lj *LJ) Energy(_ *View, total []float64) float64 { return total[0] }
