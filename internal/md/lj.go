package md

import (
	"mlmd/internal/linalg"
	"mlmd/internal/par"
)

// ljGrain is the fixed chunk size of the pool-parallel force pass. It is a
// constant (not worker-derived) so chunk boundaries — and therefore the
// deterministic chunk-ordered energy partials — are identical for every
// worker count.
const ljGrain = 128

// LennardJones is the plain truncated 12-6 Lennard-Jones pair field at the
// list cutoff: u = 4ε[(σ/r)¹² − (σ/r)⁶] inside it and zero beyond, with
// neither the energy nor the force shifted to vanish there, so both jump at
// the cutoff. Each atom's force is Σ_j f(i,j) over its full neighbor row in
// ascending global-id order, evaluated from raw coordinates; the potential
// energy is accumulated as ½u(i,j) per directed pair (exact halving), summed
// in fixed chunk order. The decomposed engine's LJ (internal/shard) runs the
// same rows through the same loop, so unsharded trajectories are bitwise
// the engine's. Where the host has AVX2 the pair terms come from the vector
// kernels (rowTerms), with the scalar row's bits.
//
// ComputeForces runs on the shared worker pool and is allocation-free in
// steady state (the chunk body and scratch are cached on first use).
type LennardJones struct {
	Epsilon, Sigma float64
	NL             *NeighborList

	peChunk []float64
	// terms is each chunk's scratch for the vector kernel's pair terms.
	terms []ljScratch
	fctx  struct {
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
	if cap(lj.terms) < nchunks {
		lj.terms = make([]ljScratch, nchunks)
	}
	lj.terms = lj.terms[:nchunks]
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
	t := &lj.terms[lo/ljGrain]
	var pe float64
	for i := base + lo; i < base+hi; i++ {
		var fx, fy, fz float64
		if useAVX2 {
			fx, fy, fz, pe = k.rowTerms(t, x, nl.Row(i), x[3*i], x[3*i+1], x[3*i+2], pe)
		} else {
			fx, fy, fz, pe = k.row(x, nl.Row(i), x[3*i], x[3*i+1], x[3*i+2], pe)
		}
		sys.F[3*i] = fx
		sys.F[3*i+1] = fy
		sys.F[3*i+2] = fz
	}
	lj.peChunk[lo/ljGrain] = pe
}

// useAVX2 selects the LJ terms kernels (rowTerms), and useAVX512 (which
// implies useAVX2) the ZMM one among them. They are linalg's kernel tier
// bits, set once at init, and flipped only by this package's tests, which
// run every LJ test on each path.
var useAVX2, useAVX512 = linalg.AVX2(), linalg.AVX512()

// ljKernel holds what the pair loop reads: the squared cutoff, σ², the two
// ε prefactors of u and f (4ε and 24ε, the products the per-pair expressions
// 4·ε·(…) and 24·ε·(…) start with, so hoisting them moves no bit) and the
// box periods. It is also the argument block of the terms kernels, which
// read its fields at fixed offsets (TestLJKernelArgsLayout).
type ljKernel struct {
	rc2, sig2, eps4, eps24 float64
	px, py, pz             Period
}

// pair returns the force terms fmag·dx, fmag·dy, fmag·dz and the energy term
// ½u of a neighbor at raw separation (dx, dy, dz), taken to its minimum
// image, and whether it lies inside the cutoff; a rejected pair returns +0
// terms. It is the one statement of the pair arithmetic: the scalar row and
// the vector path's tails and bail-outs both call it, and each lane of
// ljTermsAVX2 and ljTermsAVX512 is it.
//
//mlmd:hotpath
func (k *ljKernel) pair(dx, dy, dz float64) (tx, ty, tz, hu float64, ok bool) {
	dx = k.px.MinImage(dx)
	dy = k.py.MinImage(dy)
	dz = k.pz.MinImage(dz)
	r2 := dx*dx + dy*dy + dz*dz
	if r2 > k.rc2 || r2 == 0 {
		return 0, 0, 0, 0, false
	}
	sr2 := k.sig2 / r2
	sr6 := sr2 * sr2 * sr2
	sr12 := sr6 * sr6
	fmag := k.eps24 * (2*sr12 - sr6) / r2
	return fmag * dx, fmag * dy, fmag * dz, 0.5 * (k.eps4 * (sr12 - sr6)), true
}

// row returns the force on the atom at (xi, yi, zi) summed over its neighbor
// row in row order, and pe advanced by the row's ½u terms. It is the
// reference rowTerms must equal, and the path of a host without AVX2. It is
// a function of its own rather than the body of forceChunk's loop because
// it measures faster that way (PERFORMANCE.md, "pair geometry").
//
//mlmd:hotpath
func (k *ljKernel) row(x []float64, row []int32, xi, yi, zi, pe float64) (fx, fy, fz, _ float64) {
	for _, j := range row {
		tx, ty, tz, hu, ok := k.pair(xi-x[3*j], yi-x[3*j+1], zi-x[3*j+2])
		if !ok {
			continue
		}
		pe += hu
		fx += tx
		fy += ty
		fz += tz
	}
	return fx, fy, fz, pe
}

// ljSeg is how many candidates of a row one pass of the terms kernel covers;
// a longer row takes several passes, so the scratch never depends on the
// neighbor list.
const ljSeg = 64

// ljScratch holds the pair terms of up to ljSeg candidates, one array per
// term. The terms kernels write the four arrays at fixed offsets from x
// (TestLJKernelArgsLayout).
type ljScratch struct {
	x, y, z, u [ljSeg]float64
}

// rowTerms is row on the vector kernels: per segment of the row, terms
// writes every candidate's terms into t, +0 for a rejected one, and one
// scalar loop sums them in row order. The sums are row's chains with a +0
// added where row skips a candidate, and that add is the identity: each sum
// starts at +0, and in round-to-nearest s + y is −0 only when s and y are
// both −0, so a sum is never −0, and s + (+0) = s for every s other than
// −0 (NaN and ±Inf included). So rowTerms returns row's bits
// (TestLJKernelMatchesReference, FuzzLJRow).
//
//mlmd:hotpath
func (k *ljKernel) rowTerms(t *ljScratch, x []float64, row []int32, xi, yi, zi, pe float64) (fx, fy, fz, _ float64) {
	for len(row) > 0 {
		seg := row[:min(len(row), ljSeg)]
		row = row[len(seg):]
		k.terms(t, x, seg, xi, yi, zi)
		tx, ty, tz, tu := t.x[:len(seg)], t.y[:len(seg)], t.z[:len(seg)], t.u[:len(seg)]
		for c := range tx {
			pe += tu[c]
			fx += tx[c]
			fy += ty[c]
			fz += tz[c]
		}
	}
	return fx, fy, fz, pe
}

// terms writes pair's terms of candidates seg (at most ljSeg) into t. The
// kernels take groups of 8 (AVX-512) then of 4 (AVX2), and stop at a group
// they cannot take — a lane whose separation needs minImageFormula (|d|
// outside both of MinImage's windows, NaN, ±Inf) or an index outside x —
// which pair then takes, as it takes the last len(seg) % 4 candidates, and
// every candidate on the reference path.
//
//mlmd:hotpath
func (k *ljKernel) terms(t *ljScratch, x []float64, seg []int32, xi, yi, zi float64) {
	c, n4 := 0, len(seg)&^3
	if useAVX512 && n4 >= 8 {
		c = ljTermsAVX512(k, &x[0], len(x)/3, &seg[0], n4&^7, xi, yi, zi, &t.x[0])
	}
	if useAVX2 {
		for c < n4 {
			c += ljTermsAVX2(k, &x[0], len(x)/3, &seg[c], n4-c, xi, yi, zi, &t.x[c])
			if c < n4 {
				k.pairsAt(t, x, seg, c, c+4, xi, yi, zi)
				c += 4
			}
		}
	}
	k.pairsAt(t, x, seg, c, len(seg), xi, yi, zi)
}

// pairsAt writes pair's terms of candidates seg[lo:hi] into t.
//
//mlmd:hotpath
func (k *ljKernel) pairsAt(t *ljScratch, x []float64, seg []int32, lo, hi int, xi, yi, zi float64) {
	for c := lo; c < hi; c++ {
		j := seg[c]
		t.x[c], t.y[c], t.z[c], t.u[c], _ = k.pair(xi-x[3*j], yi-x[3*j+1], zi-x[3*j+2])
	}
}
