//go:build !amd64

package linalg

// Off amd64 the math.Exp loops are the only path: useExpFMA stays false and
// these stubs are never reached.

func expRowsAVX2FMA(dst, src *float64, n int) int {
	panic("linalg: no vector kernels on this architecture")
}

func siluRowsAVX2FMA(y, dy, x *float64, n int) int {
	panic("linalg: no vector kernels on this architecture")
}
