package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// curlLayout returns a box of nx×ny×n cells inside a field with one ghost
// cell on every side and pad extra cells per z-row, and the field's length.
func curlLayout(n, ny, nx, pad int) (CurlBox, int) {
	sy := 3 * (n + 2 + pad)
	sx := sy * (ny + 2)
	return CurlBox{Base: sx + sy + 3, N: [3]int{nx, ny, n}, SX: sx, SY: sy}, (nx + 2) * sx
}

// checkCurlRows runs one random CurlRows problem on the dispatched path and
// on the reference and wants one set of bits over the whole destination
// field, ghosts and padding included. With the vector kernel off (or off
// amd64) the two coincide, which still exercises the wrapper.
func checkCurlRows(t *testing.T, seed int64, dir CurlDir, n, ny, nx, pad, off, rate int, h [3]float64) {
	rng := rand.New(rand.NewSource(seed))
	box, size := curlLayout(n, ny, nx, pad)
	k := fuzzReal(rng, rate)
	src := fuzzReals(rng, size, off, rate)
	got := fuzzReals(rng, size, (off+1)%4, rate)
	want := append([]float64(nil), got...)
	CurlRows(dir, got, src, box, h, k)
	curlRowsGo(dir, want, src, box, h, k)
	compareReals(t, fmt.Sprintf("CurlRows dir %d, %dx%dx%d pad %d off %d, h %v, k %v", dir, nx, ny, n, pad, off, h, k), got, want)
}

// curlSpacings are anisotropic spacings none of which is a power of two, so
// no divide is exact by accident.
var curlSpacings = [][3]float64{{1.0, 1.1, 0.9}, {0.7, 1.3, 2.9}, {1.9, 0.3, 1.7}}

// FuzzCurlRows: the AVX2 curl kernel equals its Go reference by
// Float64bits for both update directions over rows of 1–70 cells (so every
// 1–3-cell tail), several rows and planes, padded strides, unaligned
// fields, anisotropic non-power-of-two spacings, signed zeros, subnormals,
// infinities and NaNs.
func FuzzCurlRows(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(63), uint8(2), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(4), uint8(1))
	f.Add(int64(3), uint8(0), uint8(6), uint8(3), uint8(2), uint8(2), uint8(3), uint8(6), uint8(2))
	f.Add(int64(4), uint8(1), uint8(69), uint8(1), uint8(0), uint8(0), uint8(2), uint8(3), uint8(0))
	f.Add(int64(5), uint8(1), uint8(10), uint8(2), uint8(1), uint8(1), uint8(1), uint8(20), uint8(0xff))
	f.Fuzz(func(t *testing.T, seed int64, dir, n, ny, nx, pad, off, rate, hsel uint8) {
		h := curlSpacings[int(hsel)%len(curlSpacings)]
		if hsel >= 0x80 { // a random spacing triple
			rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
			h = [3]float64{0.25 + 2*rng.Float64(), 0.25 + 2*rng.Float64(), 0.25 + 2*rng.Float64()}
		}
		checkCurlRows(t, seed, CurlDir(dir%2), 1+int(n%70), 1+int(ny%4), 1+int(nx%3), int(pad%3), int(off%4), int(rate), h)
	})
}

// TestCurlRowsMatchesReference runs the fuzz body over a fixed grid, so a
// plain `go test` covers every row length up to three chunks and a tail,
// the benchmark's 64-cell row, both directions and every spacing on both
// paths.
func TestCurlRowsMatchesReference(t *testing.T) {
	seed := int64(0)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 31, 64, 70} {
		for dir := CurlAddBackward; dir <= CurlSubForward; dir++ {
			for i, h := range curlSpacings {
				seed++
				checkCurlRows(t, seed, dir, n, 1+i, 1+int(seed)%2, int(seed)%3, int(seed)%4, 5*(int(seed)%3), h)
			}
		}
	}
}

// TestCurlRowsShortSlicePanics: the assembly checks nothing, so CurlRows
// must refuse a field that cannot hold the box's footprint, or a malformed
// box, before anything is written. Each field sits inside a larger
// canary-filled array. A field cut to exactly the footprint is accepted.
func TestCurlRowsShortSlicePanics(t *testing.T) {
	const canary = 12345.5
	box, size := curlLayout(9, 2, 2, 0)
	backing := make([]float64, 2*size)
	for i := range backing {
		backing[i] = canary
	}
	dst := backing[:size:size]
	src := fuzzReals(rand.New(rand.NewSource(1)), size, 0, 0)
	h := curlSpacings[0]
	last := box.Base + (box.N[0]-1)*box.SX + (box.N[1]-1)*box.SY + 3*(box.N[2]-1)
	for _, dir := range []CurlDir{CurlAddBackward, CurlSubForward} {
		lo, hi := box.Base-2-box.SX, last+5
		if dir == CurlSubForward {
			lo, hi = box.Base-2, last+5+box.SX
		}
		mustPanic(t, fmt.Sprintf("dir %d with a short source", dir), func() {
			CurlRows(dir, dst, src[:hi-1], box, h, 1)
		})
		low := box
		low.Base -= lo + 1
		mustPanic(t, fmt.Sprintf("dir %d with a source that starts too late", dir), func() {
			CurlRows(dir, backing[size:], src[lo+1:], low, h, 1)
		})
		mustPanic(t, fmt.Sprintf("dir %d with a short destination", dir), func() {
			CurlRows(dir, backing[:last+2:last+2], src, box, h, 1)
		})
		for _, bad := range []struct {
			name string
			mut  func(*CurlBox)
		}{
			{"a negative extent", func(b *CurlBox) { b.N[1] = -1 }},
			{"overlapping rows", func(b *CurlBox) { b.SY = 3*b.N[2] - 3 }},
			{"overlapping planes", func(b *CurlBox) { b.SX = b.SY*b.N[1] - 1 }},
		} {
			b := box
			bad.mut(&b)
			mustPanic(t, fmt.Sprintf("dir %d with %s", dir, bad.name), func() { CurlRows(dir, dst, src, b, h, 1) })
		}

		// The exact footprint is enough on either path.
		fit := box
		fit.Base -= lo
		want := make([]float64, size)
		curlRowsGo(dir, want, src, box, h, 1)
		got := make([]float64, size)
		CurlRows(dir, got[lo:last+3], src[lo:hi], fit, h, 1)
		compareReals(t, fmt.Sprintf("dir %d on an exact-fit field", dir), got, want)
	}
	mustPanic(t, "an unknown direction", func() { CurlRows(CurlSubForward+1, dst, src, box, h, 1) })
	for i, v := range backing {
		if v != canary {
			t.Fatalf("a rejected call wrote element %d", i)
		}
	}
}
