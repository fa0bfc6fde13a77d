//go:build !amd64

package md

// Off amd64 the scalar row is the only path: useAVX2 stays false and this
// stub is never reached.

func ljTermsAVX2(k *ljKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, t *float64) int {
	panic("md: no vector kernels on this architecture")
}

func ljTermsAVX512(k *ljKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, t *float64) int {
	panic("md: no vector kernels on this architecture")
}

func pruneAVX2(k *pruneKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, out *int32) (done, kept int) {
	panic("md: no vector kernels on this architecture")
}

func pruneAVX512(k *pruneKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, out *int32) (done, kept int) {
	panic("md: no vector kernels on this architecture")
}
