package linalg

import "math"

// This file is the sine and cosine under Allegro's cosine cutoff and the
// TDDFT potential phase. Like the exp rows it defines no arithmetic of its
// own: the reference is the standard library's math.Sincos, which on amd64
// is pure Go (no arch sin/cos there) and shares one algorithm with math.Sin
// and math.Cos ($GOROOT/src/math/sin.go and sincos.go): for |x| < 2²⁹ a
// Cody–Waite reduction by π/4 in three parts, the octant j rounded up to
// even, and two Cephes polynomials in z², every product rounded before it is
// added. The vector kernel (sincos_amd64.s) is that chain on 4 lanes, FMA-free;
// the octant's bits pick the polynomial and the two signs. It rides the
// package's useAVX2, with no init self-check: it copies the stdlib's chain,
// which TestSincosRowsMatchesMathSincos holds it to.

// sincosReduceMax is the stdlib's reduceThreshold: from there on it reduces
// by Payne–Hanek, which the kernel does not copy. A group with a lane whose
// magnitude is at least this, ±Inf or NaN, and the n%4 tail, go through
// math.Sincos.
const sincosReduceMax = 1 << 29

// SincosRows sets sin[i], cos[i] = math.Sincos(x[i]) — the same bits, in
// this process, which are also math.Sin(x[i]) and math.Cos(x[i]) — for every
// i. The three slices must have one length; sin or cos may be x (the result
// overwrites the argument), otherwise no two may overlap.
//
//mlmd:hotpath
func SincosRows(sin, cos, x []float64) {
	n := len(x)
	if len(sin) != n || len(cos) != n {
		panic("linalg: SincosRows with operands of different lengths")
	}
	i := 0
	for useAVX2 && n-i >= 4 {
		i += 4 * sincosRowsAVX2(&sin[i], &cos[i], &x[i], (n-i)/4)
		if n-i < 4 {
			break
		}
		// The group at i has a lane the kernel does not reduce.
		sincosRowsGo(sin[i:i+4], cos[i:i+4], x[i:i+4])
		i += 4
	}
	sincosRowsGo(sin[i:], cos[i:], x[i:n])
}

// sincosRowsGo is the reference of SincosRows.
//
//mlmd:hotpath
func sincosRowsGo(sin, cos, x []float64) {
	for i, v := range x {
		//lint:allow rowexp the reference and fallback of SincosRows: the loop the vector kernel must equal
		sin[i], cos[i] = math.Sincos(v)
	}
}
