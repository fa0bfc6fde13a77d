package linalg

// Assembly kernels of zkernels.go (zkernels_amd64.s) and dkernels.go
// (dkernels_amd64.s). None of them checks a bound: the Go wrappers do.

//go:noescape
func zrotPairsAVX2(data *complex128, norb int, pairs *int32, npairs int, coef *[5]float64)

//go:noescape
func zphaseRowsAVX2(data *complex128, norb int, rot *complex128, nrows int)

//go:noescape
func zgemmTileAVX2(args *zgemmArgs)

//go:noescape
func dgemmTile4AVX2(args *dgemmArgs)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

func init() { useAVX2 = hasAVX2() }

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// state (the standard CPUID + XGETBV sequence).
func hasAVX2() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
