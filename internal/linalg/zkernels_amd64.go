package linalg

// Assembly kernels of zkernels.go (zkernels_amd64.s), zground.go
// (zground_amd64.s) and dkernels.go (dkernels_amd64.s). None of them checks
// a bound: the Go wrappers do.

//go:noescape
func zrotPairsAVX2(data *complex128, norb int, pairs *int32, npairs int, coef *[5]float64)

//go:noescape
func zphaseRowsAVX2(data *complex128, norb int, rot *complex128, nrows int)

//go:noescape
func zgemmTileAVX2(args *zgemmArgs)

//go:noescape
func zgemmTileAVX512(args *zgemmArgs)

//go:noescape
func zdotRowsAVX2(acc, x, y *complex128, norb, rows, ncols int)

//go:noescape
func zdotColAVX2(args *zdotColArgs)

//go:noescape
func zaxpyColAVX2(x, xlo, a *complex128, norb, rows, ncols int) float64

//go:noescape
func zresidRowsAVX2(w, hw, e *complex128, norb, rows int, dtau float64) float64

//go:noescape
func zstencilRowsAVX2(args *zstencilArgs)

//go:noescape
func dgemmTile4AVX2(args *dgemmArgs)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

func init() {
	useAVX2 = hasAVX2()
	useAVX512 = useAVX2 && hasAVX512()
	useExpFMA = useAVX2 && hasFMA() && expKernelAgrees()
}

// hasFMA reports whether the CPU implements FMA3 (CPUID.1:ECX bit 12). It is
// asked only after hasAVX2, which has checked the YMM state.
func hasFMA() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<12) != 0
}

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

// hasAVX512 reports whether the CPU implements AVX512F and the OS saves the
// opmask and ZMM state. It is asked only after hasAVX2, which has checked
// OSXSAVE and the maximum CPUID leaf.
func hasAVX512() bool {
	// XCR0 bits 1, 2, 5, 6, 7: XMM, YMM, opmask, ZMM_Hi256 (the upper halves
	// of Z0–Z15) and Hi16_ZMM (Z16–Z31, which the tile uses).
	if xcr0, _ := xgetbv0(); xcr0&0xE6 != 0xE6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
}
