//go:build !amd64

package linalg

// Off amd64 the Go references are the only path: useAVX2 and useAVX512 stay
// false and these stubs are never reached.

func zrotPairsAVX2(data *complex128, norb int, pairs *int32, npairs int, coef *[5]float64) {
	panic("linalg: no vector kernels on this architecture")
}

func zphaseRowsAVX2(data *complex128, norb int, rot *complex128, nrows int) {
	panic("linalg: no vector kernels on this architecture")
}

func zgemmTileAVX2(args *zgemmArgs) {
	panic("linalg: no vector kernels on this architecture")
}

func zgemmTileAVX512(args *zgemmArgs) {
	panic("linalg: no vector kernels on this architecture")
}

func zdotRowsAVX2(acc, x, y *complex128, norb, rows, ncols int) {
	panic("linalg: no vector kernels on this architecture")
}

func zdotColAVX2(args *zdotColArgs) {
	panic("linalg: no vector kernels on this architecture")
}

func zaxpyColAVX2(x, xlo, a *complex128, norb, rows, ncols int) float64 {
	panic("linalg: no vector kernels on this architecture")
}

func zresidRowsAVX2(w, hw, e *complex128, norb, rows int, dtau float64) float64 {
	panic("linalg: no vector kernels on this architecture")
}

func zstencilRowsAVX2(args *zstencilArgs) {
	panic("linalg: no vector kernels on this architecture")
}

func dgemmTile4AVX2(args *dgemmArgs) {
	panic("linalg: no vector kernels on this architecture")
}
