package linalg

import "math"

// This file is the exponential under Allegro's radial basis and SiLU
// activation. Unlike the other kernels of this package it defines no
// arithmetic of its own: the reference is the standard library's math.Exp,
// and the vector kernel (vexp_amd64.s) is a 4-lane twin of the FMA block of
// Go's amd64 math.Exp ($GOROOT/src/math/exp_amd64.s, Shibata's method:
// Cody–Waite reduction by two fused multiply-subtracts, a degree-8
// Taylor chain by fused multiply-adds, four squarings of (1+y/16)^16 and an
// exponent-field scale), instruction for instruction. A lane that runs the
// same IEEE operations in the same order gets the same bits, so ExpRows is
// math.Exp in this process — and the dependence of math.Exp on the CPU model
// (the stdlib branches at run time on FMA) stays where it was, in one place.

// useExpFMA selects the exp kernels. It is set once at init
// (zkernels_amd64.go): the host must have AVX2 and FMA, and the kernel must
// reproduce this process's math.Exp on expProbe — which it does not when the
// stdlib takes its unfused path (GODEBUG=cpu.fma=off). This package's tests
// flip it with useAVX2.
var useExpFMA bool

// The kernels take whole 4-lane groups with every lane in
// [expKernelMin, expKernelMax]; there the stdlib takes neither its
// overflow/not-finite branch nor its subnormal branch. A group with a lane
// outside (or a NaN), and the n%4 tail, go through math.Exp.
const (
	expKernelMin = -708
	expKernelMax = 709
)

// expProbe is the self-check of useExpFMA: ordinary arguments of the radial
// basis and SiLU ranges, most of which the stdlib's fused and unfused paths
// round differently (found by comparing the two paths over random inputs), so
// a kernel that fuses where this process's math.Exp does not disagrees here.
var expProbe = [...]float64{
	-1.5937854207655149, 1.774930109072952, -1.02002902304299, 0.9286890840140605,
	-3.798143038767023, 3.2701941147663884, 7.9970089680901, -9.771276639131923,
	-10.161941747963946, 29.3954952592743, -57.760728818188795, -91.72902449580454,
	-124.84730531658556, 343.19997630841317, -486.21221604363484, 559.3105704612528,
}

// expKernelAgrees reports whether the exp kernel equals math.Exp by
// Float64bits on every lane of expProbe. Only a host with AVX2 and FMA may
// ask.
func expKernelAgrees() bool {
	var got [len(expProbe)]float64
	if expRowsAVX2FMA(&got[0], &expProbe[0], len(expProbe)/4) != len(expProbe)/4 {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

// ExpRows sets dst[i] = math.Exp(src[i]) — the same bits, in this process —
// for every i. dst and src must have one length and be the same slice or not
// overlap.
//
//mlmd:hotpath
func ExpRows(dst, src []float64) {
	n := len(src)
	if len(dst) != n {
		panic("linalg: ExpRows with operands of different lengths")
	}
	i := 0
	for useExpFMA && n-i >= 4 {
		i += 4 * expRowsAVX2FMA(&dst[i], &src[i], (n-i)/4)
		if n-i < 4 {
			break
		}
		// The group at i has a lane outside the kernel's range.
		expRowsGo(dst[i:i+4], src[i:i+4])
		i += 4
	}
	expRowsGo(dst[i:], src[i:n])
}

// expRowsGo is the reference of ExpRows.
//
//mlmd:hotpath
func expRowsGo(dst, src []float64) {
	for i, x := range src {
		//lint:allow rowexp the reference and fallback of ExpRows: the loop the vector kernel must equal
		dst[i] = math.Exp(x)
	}
}

// SiLU returns the activation y = x·s and its derivative
// dy = s + (x·s)·(1−s), with s = 1/(1+exp(−x)), every product rounded
// before it is added. It is the one SiLU formula: SiLURows equals it lane by
// lane, and nn's per-row tapes call it.
//
//mlmd:hotpath
func SiLU(x float64) (y, dy float64) {
	//lint:allow rowexp the scalar definition of SiLU; rows go through SiLURows
	s := 1 / (1 + math.Exp(-x))
	y = float64(x * s)
	return y, s + float64(y*(1-s))
}

// SiLURows sets y[i], dy[i] = SiLU(x[i]) for every i. The three slices must
// have one length; dy may be x (the derivative overwrites the argument), y
// must not overlap either.
//
//mlmd:hotpath
func SiLURows(y, dy, x []float64) {
	n := len(x)
	if len(y) != n || len(dy) != n {
		panic("linalg: SiLURows with operands of different lengths")
	}
	i := 0
	for useExpFMA && n-i >= 4 {
		i += 4 * siluRowsAVX2FMA(&y[i], &dy[i], &x[i], (n-i)/4)
		if n-i < 4 {
			break
		}
		siluRowsGo(y[i:i+4], dy[i:i+4], x[i:i+4])
		i += 4
	}
	siluRowsGo(y[i:], dy[i:], x[i:n])
}

// siluRowsGo is the reference of SiLURows.
//
//mlmd:hotpath
func siluRowsGo(y, dy, x []float64) {
	for i, v := range x {
		y[i], dy[i] = SiLU(v)
	}
}
