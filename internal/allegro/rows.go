package allegro

import (
	"fmt"
	"math"

	"mlmd/internal/linalg"
)

// This file is the per-pair half of Allegro inference on the vector units:
// radialRows (the gather's radial records and descriptor terms) and
// pairGradRows (the force terms). Each lane of their kernels (rows_amd64.s,
// AVX2, FMA-free) runs one pair's chain of the scalar reference — the same
// IEEE operations in the same order — so the results are the reference's
// bits. The sums over pairs stay scalar loops in neighbor order in the
// callers: the kernels only write terms.

// useAVX2 selects the kernels. It is linalg's AVX2 tier bit, set once at
// init, and flipped only by this package's tests, which run every kernel
// test on both paths.
var useAVX2 = linalg.AVX2()

// radialArgs is the argument block of the radial kernels; the assembly reads
// its fields at fixed offsets (TestRadialArgsLayout).
type radialArgs struct {
	r, dx, dy, dz *float64 // the n4 pairs
	cs            *float64 // the NRadial basis centers
	g             *float64 // exponents, then Gaussians: g[k·ld+p]
	sn, cn        *float64 // cutoff phase, then its sine; its cosine
	tape          *float64 // records of RadialLen values, one per pair
	terms         *float64 // terms[(4k+c)·ld+p], see neighborEnv.terms
	n4, ld        int      // pairs the kernels take (a multiple of 4); pairs in the row
	nr, rl        int      // NRadial, RadialLen
	tw2, ww       float64  // 2·w·w and w·w, w the Gaussian width
	rc, dfc       float64  // the cutoff and −0.5·π/rc
}

// radialRows fills the radial tape (record p at tape[p·RadialLen():]) and
// env.terms for every pair of env: terms[(4k+c)·n+p] is, for pair p of n and
// basis function k, g_k·fc (c = 0) and g_k·fc·u_x, u_y, u_z (c = 1, 2, 3),
// with u = (dx, dy, dz)/r. That is descriptorInto's per-neighbor arithmetic;
// its sums stay with it. radialPair is the reference: on the vector path the
// pairs go 4 at a time through three stages — exponents and cutoff phases
// (radialExpAVX2), linalg.SincosRows and linalg.ExpRows over the whole row,
// and the records and terms (radialRecAVX2). A row of n ≥ 4 pairs that is
// not a multiple of 4 ends with one more group, its last 4 pairs: the pairs
// it shares with the group before are written twice with the same bits.
// Rows of fewer than 4 pairs go through radialPair.
//
//mlmd:hotpath
func (d DescriptorSpec) radialRows(env *neighborEnv, cs, tape []float64) {
	n := len(env.r)
	nr := d.NRadial
	rl := d.RadialLen()
	if len(cs) != nr || len(tape) < n*rl {
		panic("allegro: radialRows with a short centers slice or tape")
	}
	env.terms = growF64(env.terms, 4*nr*n)
	env.gauss = growF64(env.gauss, nr*n)
	if !useAVX2 || n < 4 {
		for p := 0; p < n; p++ {
			d.radialPair(env, p, cs, env.gauss[nr*p:nr*(p+1)], tape)
		}
		return
	}
	env.sn = growF64(env.sn, n)
	env.cn = growF64(env.cn, n)
	w := d.width()
	a := radialArgs{
		r: &env.r[0], dx: &env.dx[0], dy: &env.dy[0], dz: &env.dz[0],
		cs: &cs[0], g: &env.gauss[0], sn: &env.sn[0], cn: &env.cn[0],
		tape: &tape[0], terms: &env.terms[0],
		n4: n &^ 3, ld: n, nr: nr, rl: rl,
		tw2: 2 * w * w, ww: w * w,
		rc: d.Cutoff, dfc: -0.5 * math.Pi / d.Cutoff,
	}
	// The last 4 pairs, when n%4 leaves a tail.
	t, tail := a, n%4 != 0
	if tail {
		q := n - 4
		t.r, t.dx, t.dy, t.dz = &env.r[q], &env.dx[q], &env.dy[q], &env.dz[q]
		t.g, t.sn, t.cn = &env.gauss[q], &env.sn[q], &env.cn[q]
		t.tape, t.terms, t.n4 = &tape[q*rl], &env.terms[q], 4
	}
	radialExpAVX2(&a)
	if tail {
		radialExpAVX2(&t)
	}
	linalg.SincosRows(env.sn, env.cn, env.sn)
	linalg.ExpRows(env.gauss, env.gauss)
	radialRecAVX2(&a)
	if tail {
		radialRecAVX2(&t)
	}
}

// radialPair is radialRows for pair p alone, with g (NRadial values) as the
// Gaussians' scratch: the reference chain of one kernel lane.
//
//mlmd:hotpath
func (d DescriptorSpec) radialPair(env *neighborEnv, p int, cs, g, tape []float64) {
	nr := d.NRadial
	rl := d.RadialLen()
	n := len(env.r)
	r := env.r[p]
	d.gaussExponents(r, cs, g)
	linalg.ExpRows(g, g)
	t := tape[p*rl : (p+1)*rl]
	d.radialInto(r, cs, g, t)
	fc := t[2*nr]
	ux, uy, uz := env.dx[p]/r, env.dy[p]/r, env.dz[p]/r
	terms := env.terms[:4*nr*n]
	for k := 0; k < nr; k++ {
		gf := float64(t[k] * fc)
		terms[4*k*n+p] = gf
		terms[(4*k+1)*n+p] = float64(gf * ux)
		terms[(4*k+2)*n+p] = float64(gf * uy)
		terms[(4*k+3)*n+p] = float64(gf * uz)
	}
}

// pairGradArgs is the argument block of pairGradRowsAVX2; the assembly reads
// its fields at fixed offsets (TestPairGradArgsLayout).
type pairGradArgs struct {
	gx, gy, gz    *float64
	gD, s         *float64
	gOff, sOff    *int32
	tape          *float64
	dx, dy, dz, r *float64
	n4, nr, rl    int
}

// pairGradRows evaluates PairGradTaped for a run of pairs: for every p it
// sets gx[p], gy[p], gz[p] to
//
//	d.PairGradTaped(0, gD[gOff[p]:], S[sOff[p]:], tape[p·RadialLen():], dx[p], dy[p], dz[p], r[p])
//
// that is, gOff[p] and sOff[p] are where pair p's center's cotangent row and
// vector-channel accumulators start in gD and S, already advanced by the
// neighbor species' block (spJ·2·NRadial and spJ·3·NRadial), and record p of
// the tape is the pair's radial record. On the vector path 4 pairs share a
// kernel step, each lane running PairGradTaped's chain (k ascending) for its
// pair; a run of n ≥ 4 pairs that is not a multiple of 4 ends with one more
// step over its last 4 (the pairs it shares with the step before get the
// same bits twice), and a run of fewer than 4 goes through PairGradTaped.
// The bits are PairGradTaped's either way, so a caller that sums the terms
// in its own fixed order keeps its determinism contract.
//
//mlmd:hotpath
func (d DescriptorSpec) pairGradRows(gx, gy, gz, gD, S []float64, gOff, sOff []int32, tape, dx, dy, dz, r []float64) {
	n := len(r)
	nr := d.NRadial
	rl := d.RadialLen()
	if len(gx) != n || len(gy) != n || len(gz) != n || len(gOff) != n || len(sOff) != n ||
		len(dx) != n || len(dy) != n || len(dz) != n || len(tape) < n*rl {
		panic("allegro: pairGradRows with operands of different lengths")
	}
	// The kernel checks nothing: every row it reads must lie in gD and S.
	for p := range gOff {
		if g, s := int(gOff[p]), int(sOff[p]); g < 0 || g+2*nr > len(gD) || s < 0 || s+3*nr > len(S) {
			panic(fmt.Sprintf("allegro: pairGradRows pair %d reads past its payload (offsets %d, %d)", p, g, s))
		}
	}
	if !useAVX2 || n < 4 {
		for p := 0; p < n; p++ {
			gx[p], gy[p], gz[p] = d.PairGradTaped(0, gD[gOff[p]:], S[sOff[p]:], tape[p*rl:(p+1)*rl], dx[p], dy[p], dz[p], r[p])
		}
		return
	}
	a := pairGradArgs{
		gx: &gx[0], gy: &gy[0], gz: &gz[0], gD: &gD[0], s: &S[0],
		gOff: &gOff[0], sOff: &sOff[0], tape: &tape[0],
		dx: &dx[0], dy: &dy[0], dz: &dz[0], r: &r[0],
		n4: n &^ 3, nr: nr, rl: rl,
	}
	pairGradRowsAVX2(&a)
	if q := n - 4; n%4 != 0 {
		a.gx, a.gy, a.gz = &gx[q], &gy[q], &gz[q]
		a.gOff, a.sOff, a.tape = &gOff[q], &sOff[q], &tape[q*rl]
		a.dx, a.dy, a.dz, a.r = &dx[q], &dy[q], &dz[q], &r[q]
		a.n4 = 4
		pairGradRowsAVX2(&a)
	}
}
