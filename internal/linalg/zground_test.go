package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randStencil returns a stencil plan over rows rows with random neighbour
// rows (a row may be its own neighbour, as on a mesh one point wide).
func randStencil(rng *rand.Rand, rows int) ZStencil {
	var nb [6][]int32
	for i := range nb {
		nb[i] = make([]int32, rows)
		for g := range nb[i] {
			nb[i][g] = int32(rng.Intn(rows))
		}
	}
	return NewZStencil(nb[0], nb[1], nb[2], nb[3], nb[4], nb[5])
}

// compareFloat fails the test unless got is want by sameBits64.
func compareFloat(t *testing.T, what string, got, want float64) {
	t.Helper()
	if !sameBits64(got, want) {
		t.Fatalf("%s = %v (%x), reference %v (%x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkGroundKernels runs every kernel of zground.go against its Go
// reference on one random field of rows × norb values at element offset off
// (so rows start at every alignment), over every column range, with x and y
// one field (in place) and two. With the vector kernels off it compares the
// reference with itself, which still exercises the wrappers.
func checkGroundKernels(t *testing.T, seed int64, norb, rows, off, rate int) {
	rng := rand.New(rand.NewSource(seed))
	n := rows * norb
	x := fuzzField(rng, n, off, rate)
	y := fuzzField(rng, n, off, rate)
	coef := fuzzField(rng, norb, off, rate)
	shape := fmt.Sprintf("norb %d, rows %d, offset %d", norb, rows, off)

	for lo := 0; lo <= norb; lo++ {
		for w := 0; lo+w <= norb; w++ {
			got, want := make([]complex128, w), make([]complex128, w)
			for _, yy := range [][]complex128{y, x} {
				ZDotRows(got, x, yy, norb, lo)
				zdotRowsGo(want, x, yy, norb, lo)
				compareFields(t, "ZDotRows "+shape, got, want)
			}
			for col := 0; col < norb; col++ {
				for _, yy := range [][]complex128{y, x} {
					ZDotCol(got, x, col, yy, norb, lo)
					zdotColGo(want, x, col, yy, norb, lo, false, 0)
					compareFields(t, fmt.Sprintf("ZDotCol col %d, %s", col, shape), got, want)
				}
				scale := fuzzReal(rng, rate)
				gx, wx := append([]complex128(nil), x...), append([]complex128(nil), x...)
				ZScaleDotCol(got, gx, norb, col, scale, lo)
				zdotColGo(want, wx, col, wx, norb, lo, true, scale)
				compareFields(t, fmt.Sprintf("ZScaleDotCol col %d, %s", col, shape), got, want)
				compareFields(t, fmt.Sprintf("ZScaleDotCol field, col %d, %s", col, shape), gx, wx)
				if col >= lo && col < lo+w {
					continue
				}
				gx, wx = append(gx[:0], x...), append(wx[:0], x...)
				compareFloat(t, fmt.Sprintf("ZAxpyCol norm, col %d, lo %d, %s", col, lo, shape),
					ZAxpyCol(gx, norb, col, coef[lo:lo+w], lo), zaxpyColGo(wx, norb, col, coef[lo:lo+w], lo))
				compareFields(t, fmt.Sprintf("ZAxpyCol col %d, lo %d, %s", col, lo, shape), gx, wx)
			}
		}
	}

	gw, ww := append([]complex128(nil), x...), append([]complex128(nil), x...)
	dtau := fuzzReal(rng, rate)
	compareFloat(t, "ZResidRows norm, "+shape, ZResidRows(gw, y, norb, coef, dtau), zresidRowsGo(ww, y, norb, coef, dtau))
	compareFields(t, "ZResidRows "+shape, gw, ww)

	st := randStencil(rng, rows)
	vloc := make([]float64, rows+off)[off:]
	for i := range vloc {
		vloc[i] = fuzzReal(rng, rate)
	}
	sc := ZStencilCoef{
		Diag: fuzzReal(rng, rate), XP: fuzzComplex(rng, rate), XM: fuzzComplex(rng, rate),
		Y: fuzzReal(rng, rate), Z: fuzzReal(rng, rate),
	}
	for _, init := range []bool{true, false} {
		for _, sums := range []bool{false, true} {
			sc.Init = init
			gd, wd := append([]complex128(nil), y...), append([]complex128(nil), y...)
			var ga, wa []complex128
			if sums {
				ga, wa = make([]complex128, norb), make([]complex128, norb)
			}
			ZStencilRows(gd, x, norb, st, vloc, sc, ga)
			zstencilRowsGo(wd, x, norb, st, vloc, sc, wa)
			what := fmt.Sprintf("ZStencilRows init %v sums %v, %s", init, sums, shape)
			compareFields(t, what, gd, wd)
			compareFields(t, what+" (sums)", ga, wa)
		}
	}
}

// TestGroundKernelsEveryShape covers row lengths 1–9 (every YMM pair count
// with and without the odd XMM column) at every element alignment.
func TestGroundKernelsEveryShape(t *testing.T) {
	for norb := 1; norb <= 9; norb++ {
		for off := 0; off < 4; off++ {
			checkGroundKernels(t, int64(100*norb+off), norb, 1+(norb+off)%5, off, 6)
		}
	}
}

// FuzzGroundKernels: every ground-state kernel equals its Go reference by
// Float64bits over random row lengths and counts, unaligned slices, and
// fields salted with ±0, subnormals, ±Inf and NaN.
func FuzzGroundKernels(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(16), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(3))
	f.Add(int64(3), uint8(5), uint8(7), uint8(3), uint8(2))
	f.Add(int64(4), uint8(9), uint8(2), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, norb, rows, off, rate uint8) {
		checkGroundKernels(t, seed, 1+int(norb%12), 1+int(rows%24), int(off%4), int(rate))
	})
}

// TestGroundKernelsSignedZeros: Ψ(0) of the solve is real, so every
// imaginary part is +0 and the 0·x terms of the complex(x, 0) coefficients
// decide the signs of zeros in the result. A real field through every
// kernel must keep the reference's signed zeros.
func TestGroundKernelsSignedZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const norb, rows = 8, 6
	x := make([]complex128, norb*rows)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		if i%5 == 0 {
			x[i] = complex(math.Copysign(0, -1), 0)
		}
	}
	y := append([]complex128(nil), x...)
	for i := range y {
		y[i] = complex(real(y[i]), math.Copysign(0, -1))
	}
	e := make([]complex128, norb)
	for s := range e {
		e[s] = complex(rng.NormFloat64(), 0)
	}
	gw, ww := append([]complex128(nil), x...), append([]complex128(nil), x...)
	compareFloat(t, "ZResidRows norm", ZResidRows(gw, y, norb, e, 0.1), zresidRowsGo(ww, y, norb, e, 0.1))
	compareFields(t, "ZResidRows", gw, ww)
	st := randStencil(rng, rows)
	vloc := make([]float64, rows)
	sc := ZStencilCoef{Init: true, Diag: 1, XP: complex(-0.5, 0), XM: complex(-0.5, 0), Y: -0.5, Z: -0.5}
	gd, wd := make([]complex128, len(x)), make([]complex128, len(x))
	ga, wa := make([]complex128, norb), make([]complex128, norb)
	ZStencilRows(gd, x, norb, st, vloc, sc, ga)
	zstencilRowsGo(wd, x, norb, st, vloc, sc, wa)
	compareFields(t, "ZStencilRows", gd, wd)
	compareFields(t, "ZStencilRows sums", ga, wa)
	ov, wov := make([]complex128, norb-1), make([]complex128, norb-1)
	ZScaleDotCol(ov, gw, norb, 0, 0.5, 1)
	zdotColGo(wov, ww, 0, ww, norb, 1, true, 0.5)
	compareFields(t, "ZScaleDotCol", ov, wov)
	compareFields(t, "ZScaleDotCol field", gw, ww)
}

// TestGroundKernelsShortSlicePanics: the wrappers refuse shapes the
// assembly would run past, and ZStencilRows an in-place call.
func TestGroundKernelsShortSlicePanics(t *testing.T) {
	const norb, rows = 4, 3
	x := make([]complex128, norb*rows)
	acc := make([]complex128, norb)
	mustPanic(t, "ZDotRows on a ragged field", func() { ZDotRows(acc, x[:len(x)-1], x[:len(x)-1], norb, 0) })
	mustPanic(t, "ZDotRows with fields of two lengths", func() { ZDotRows(acc, x, x[:norb], norb, 0) })
	mustPanic(t, "ZDotRows past the row", func() { ZDotRows(acc, x, x, norb, 1) })
	mustPanic(t, "ZDotCol past the row", func() { ZDotCol(acc[:1], x, norb, x, norb, 0) })
	mustPanic(t, "ZScaleDotCol past the row", func() { ZScaleDotCol(acc[:2], x, norb, 0, 1, 3) })
	mustPanic(t, "ZAxpyCol onto its source", func() { ZAxpyCol(x, norb, 1, acc[:2], 0) })
	mustPanic(t, "ZAxpyCol with norb 0", func() { ZAxpyCol(x, 0, 0, acc[:1], 1) })
	mustPanic(t, "ZResidRows with a short e", func() { ZResidRows(x, x, norb, acc[:3], 1) })
	mustPanic(t, "NewZStencil with an index past the mesh", func() {
		t := []int32{0, 1, 3}
		NewZStencil(t, t, t, t, t, t)
	})
	mustPanic(t, "NewZStencil with tables of two lengths", func() {
		t := []int32{0, 1, 2}
		NewZStencil(t, t, t, t, t, t[:2])
	})
	good := []int32{0, 1, 2}
	st := NewZStencil(good, good, good, good, good, good)
	vloc := make([]float64, rows)
	y := make([]complex128, len(x))
	mustPanic(t, "ZStencilRows in place", func() { ZStencilRows(x, x, norb, st, vloc, ZStencilCoef{Init: true}, nil) })
	mustPanic(t, "ZStencilRows with a short vloc", func() { ZStencilRows(y, x, norb, st, vloc[:2], ZStencilCoef{Init: true}, nil) })
	mustPanic(t, "ZStencilRows with a plan of another mesh", func() { ZStencilRows(y[:norb*2], x[:norb*2], norb, st, vloc, ZStencilCoef{}, nil) })
	mustPanic(t, "ZStencilRows with short sums", func() { ZStencilRows(y, x, norb, st, vloc, ZStencilCoef{}, acc[:2]) })
}

// --- kernel vs reference benchmarks (qd.dcmesh's local shape: 16³ × 8) ---

func BenchmarkZStencilRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := fuzzField(rng, benchGrid*benchOrb, 0, 0)
	dst := make([]complex128, len(src))
	st := randStencil(rng, benchGrid)
	vloc := make([]float64, benchGrid)
	acc := make([]complex128, benchOrb)
	sc := ZStencilCoef{Init: true, Diag: 1, XP: complex(-0.4, 0.1), XM: complex(-0.4, -0.1), Y: -0.5, Z: -0.5}
	benchBothPaths(b, func() { ZStencilRows(dst, src, benchOrb, st, vloc, sc, acc) })
}

func BenchmarkZGramSchmidtPasses(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := fuzzField(rng, benchGrid*benchOrb, 0, 0)
	ov := make([]complex128, benchOrb)
	// Orthonormalize over and over: the field stays orthonormal, so every
	// pass sees ordinary values.
	benchBothPaths(b, func() {
		var n0 float64
		for g := 0; g < len(x); g += benchOrb {
			n0 += real(x[g])*real(x[g]) + imag(x[g])*imag(x[g])
		}
		for r := 0; r < benchOrb; r++ {
			ZScaleDotCol(ov[:benchOrb-r-1], x, benchOrb, r, 1/math.Sqrt(n0), r+1)
			n0 = ZAxpyCol(x, benchOrb, r, ov[:benchOrb-r-1], r+1)
		}
	})
}

func BenchmarkZResidRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := fuzzField(rng, benchGrid*benchOrb, 0, 0)
	hw := fuzzField(rng, benchGrid*benchOrb, 0, 0)
	e := make([]complex128, benchOrb)
	benchBothPaths(b, func() { ZResidRows(w, hw, benchOrb, e, 0) })
}

func BenchmarkZDotRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := fuzzField(rng, benchGrid*benchOrb, 0, 0)
	y := fuzzField(rng, benchGrid*benchOrb, 0, 0)
	acc := make([]complex128, benchOrb)
	benchBothPaths(b, func() { ZDotRows(acc, x, y, benchOrb, 0) })
}
