package shard

import (
	"mlmd/internal/md"
	"mlmd/internal/par"
)

// ljGrain is the fixed chunk size of the pool-parallel force pass. Like
// internal/md, it is a constant (not worker-derived) so chunk boundaries —
// and therefore the deterministic chunk-ordered energy partials — are
// identical for every worker count.
const ljGrain = 128

// LJ is the canonical-order Lennard-Jones rank force field: each owned
// atom's force is Σ_j f(i,j) over its full neighbor row
// in ascending global-id order, evaluated from raw global coordinates. Per
// the package determinism contract this makes P-rank trajectories bitwise
// identical to the 1-rank run for every grid shape. The potential energy is
// accumulated as ½u(i,j) per directed pair (exact halving), summed in fixed
// chunk order.
//
// LJ implements BlockFF, so the engine evaluates its interior atoms while
// the halo exchange is in flight; the split is bitwise neutral for forces
// (each atom's force is a self-contained row sum) and perturbs only the
// chunk grouping of the energy partial.
//
// Compute runs on the shared worker pool and is allocation-free in steady
// state (closures and scratch are cached on first use).
type LJ struct {
	Epsilon, Sigma float64

	peChunk []float64
	fctx    struct {
		v    *View
		rc2  float64
		base int
	}
	forceFn func(lo, hi, w int)
}

// LJFactory returns a Config.NewFF for per-rank LJ fields.
func LJFactory(epsilon, sigma float64) func(rank int) RankFF {
	return func(int) RankFF { return &LJ{Epsilon: epsilon, Sigma: sigma} }
}

// PartialLen implements RankFF.
func (lj *LJ) PartialLen() int { return 1 }

// NeedsNeighborList implements RankFF.
func (lj *LJ) NeedsNeighborList() bool { return true }

// Compute implements RankFF (partial arrives zeroed from the engine).
func (lj *LJ) Compute(v *View, partial []float64) {
	lj.ComputeBlock(v, 0, v.NOwn, partial)
}

// ComputeBlock implements BlockFF: forces and energy terms of owned atoms
// [lo, hi) only, accumulated into partial.
func (lj *LJ) ComputeBlock(v *View, lo, hi int, partial []float64) {
	n := hi - lo
	if n <= 0 {
		return
	}
	nchunks := (n + ljGrain - 1) / ljGrain
	lj.peChunk = resizeF64(lj.peChunk, nchunks)
	lj.fctx.v = v
	lj.fctx.rc2 = lj.Cutoff2(v)
	lj.fctx.base = lo
	lj.ensureClosures()
	par.For(n, ljGrain, lj.forceFn)
	var pe float64
	for _, e := range lj.peChunk[:nchunks] {
		pe += e
	}
	partial[0] += pe
}

// Cutoff2 returns the squared force cutoff (the neighbor-list cutoff).
func (lj *LJ) Cutoff2(v *View) float64 { return v.NL.Cutoff * v.NL.Cutoff }

// Energy implements RankFF.
func (lj *LJ) Energy(_ *View, total []float64) float64 { return total[0] }

func (lj *LJ) ensureClosures() {
	if lj.forceFn != nil {
		return
	}
	lj.forceFn = func(lo, hi, _ int) {
		v := lj.fctx.v
		base := lj.fctx.base
		nl := v.NL
		k := ljKernel{
			rc2: lj.fctx.rc2, sig2: lj.Sigma * lj.Sigma,
			eps4: 4 * lj.Epsilon, eps24: 24 * lj.Epsilon,
		}
		k.px, k.py, k.pz = v.Periods()
		x := v.X
		var pe float64
		for i := base + lo; i < base+hi; i++ {
			var fx, fy, fz float64
			fx, fy, fz, pe = k.row(x, nl.Row(i), x[3*i], x[3*i+1], x[3*i+2], pe)
			v.F[3*i] = fx
			v.F[3*i+1] = fy
			v.F[3*i+2] = fz
		}
		lj.peChunk[lo/ljGrain] = pe
	}
}

// ljKernel holds what the pair loop reads: the squared cutoff, σ², the two
// ε prefactors of u and f (4ε and 24ε, the products the per-pair expressions
// 4·ε·(…) and 24·ε·(…) start with, so hoisting them moves no bit) and the
// box periods.
type ljKernel struct {
	rc2, sig2, eps4, eps24 float64
	px, py, pz             md.Period
}

// row returns the force on the owned atom at (xi, yi, zi) summed over its
// neighbor row in row order, and pe advanced by the row's ½u terms. It is a
// function of its own rather than the body of the chunk loop above because
// it measures faster that way: written inline, the same loop costs the
// md.lj benchmark workload 1.75 ms per step instead of 1.35
// (PERFORMANCE.md, PR 13).
func (k *ljKernel) row(x []float64, row []int32, xi, yi, zi, pe float64) (fx, fy, fz, _ float64) {
	for _, j := range row {
		dx := k.px.MinImage(xi - x[3*j])
		dy := k.py.MinImage(yi - x[3*j+1])
		dz := k.pz.MinImage(zi - x[3*j+2])
		r2 := dx*dx + dy*dy + dz*dz
		if r2 > k.rc2 || r2 == 0 {
			continue
		}
		sr2 := k.sig2 / r2
		sr6 := sr2 * sr2 * sr2
		sr12 := sr6 * sr6
		pe += 0.5 * (k.eps4 * (sr12 - sr6))
		fmag := k.eps24 * (2*sr12 - sr6) / r2
		fx += fmag * dx
		fy += fmag * dy
		fz += fmag * dz
	}
	return fx, fy, fz, pe
}
