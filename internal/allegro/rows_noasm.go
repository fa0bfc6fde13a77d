//go:build !amd64

package allegro

// Off amd64 the scalar references are the only path: useAVX2 stays false and
// these stubs are never reached.

func radialExpAVX2(a *radialArgs) {
	panic("allegro: no vector kernels on this architecture")
}

func radialRecAVX2(a *radialArgs) {
	panic("allegro: no vector kernels on this architecture")
}

func pairGradRowsAVX2(a *pairGradArgs) {
	panic("allegro: no vector kernels on this architecture")
}
