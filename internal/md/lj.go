package md

import "mlmd/internal/par"

// ljGrain is the fixed chunk size of the pool-parallel force pass. It is a
// constant (not worker-derived) so chunk boundaries — and therefore the
// deterministic chunk-ordered energy partials — are identical for every
// worker count.
const ljGrain = 128

// LennardJones is the shifted-force Lennard-Jones pair field at the list
// cutoff. Each atom's force is Σ_j f(i,j) over its full neighbor row in
// ascending global-id order, evaluated from raw coordinates; the potential
// energy is accumulated as ½u(i,j) per directed pair (exact halving), summed
// in fixed chunk order. The decomposed engine's LJ (internal/shard) runs the
// same rows through the same loop, so unsharded trajectories are bitwise
// the engine's.
//
// ComputeForces runs on the shared worker pool and is allocation-free in
// steady state (the chunk body and scratch are cached on first use).
type LennardJones struct {
	Epsilon, Sigma float64
	NL             *NeighborList

	peChunk []float64
	fctx    struct {
		sys  *System
		base int
	}
	forceFn func(lo, hi, w int)
}

// ComputeForces implements ForceField: it rebuilds the neighbor list if
// stale and evaluates every atom's row.
func (lj *LennardJones) ComputeForces(sys *System) float64 {
	if lj.NL.Stale(sys) {
		lj.NL.Build(sys)
	}
	return lj.ComputeRows(sys, 0, sys.N)
}

// ComputeRows writes the forces of row atoms [lo, hi) of the current list
// into sys.F and returns their energy terms, summed in fixed 128-atom chunks
// from lo. Each force is a self-contained row sum, so how a caller splits
// the rows never moves a force bit, only the chunk grouping of the energy.
func (lj *LennardJones) ComputeRows(sys *System, lo, hi int) float64 {
	n := hi - lo
	if n <= 0 {
		return 0
	}
	nchunks := (n + ljGrain - 1) / ljGrain
	lj.peChunk = resizeF64(lj.peChunk, nchunks)
	lj.fctx.sys = sys
	lj.fctx.base = lo
	if lj.forceFn == nil {
		lj.forceFn = lj.forceChunk
	}
	par.For(n, ljGrain, lj.forceFn)
	var pe float64
	for _, e := range lj.peChunk[:nchunks] {
		pe += e
	}
	return pe
}

// forceChunk is the par.For body of ComputeRows: rows base+lo .. base+hi.
//
//mlmd:hotpath
func (lj *LennardJones) forceChunk(lo, hi, _ int) {
	sys := lj.fctx.sys
	base := lj.fctx.base
	nl := lj.NL
	k := ljKernel{
		rc2: nl.Cutoff * nl.Cutoff, sig2: lj.Sigma * lj.Sigma,
		eps4: 4 * lj.Epsilon, eps24: 24 * lj.Epsilon,
	}
	k.px, k.py, k.pz = sys.Periods()
	x := sys.X
	var pe float64
	for i := base + lo; i < base+hi; i++ {
		var fx, fy, fz float64
		fx, fy, fz, pe = k.row(x, nl.Row(i), x[3*i], x[3*i+1], x[3*i+2], pe)
		sys.F[3*i] = fx
		sys.F[3*i+1] = fy
		sys.F[3*i+2] = fz
	}
	lj.peChunk[lo/ljGrain] = pe
}

// ljKernel holds what the pair loop reads: the squared cutoff, σ², the two
// ε prefactors of u and f (4ε and 24ε, the products the per-pair expressions
// 4·ε·(…) and 24·ε·(…) start with, so hoisting them moves no bit) and the
// box periods.
type ljKernel struct {
	rc2, sig2, eps4, eps24 float64
	px, py, pz             Period
}

// row returns the force on the atom at (xi, yi, zi) summed over its neighbor
// row in row order, and pe advanced by the row's ½u terms. It is a function
// of its own rather than the body of forceChunk's loop because it measures
// faster that way: written inline, the same loop costs the md.lj benchmark
// workload 1.75 ms per step instead of 1.35 (PERFORMANCE.md, PR 13).
//
//mlmd:hotpath
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
