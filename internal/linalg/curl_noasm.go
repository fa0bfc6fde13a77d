//go:build !amd64

package linalg

// Off amd64 the reference is the only path: useAVX2 stays false and this
// stub is never reached.

func curlRowsAVX2(args *curlArgs) {
	panic("linalg: no vector kernels on this architecture")
}
