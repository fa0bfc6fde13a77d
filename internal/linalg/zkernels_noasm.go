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

func dgemmTile4AVX2(args *dgemmArgs) {
	panic("linalg: no vector kernels on this architecture")
}
