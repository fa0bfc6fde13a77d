package tddft

import (
	"mlmd/internal/grid"
	"mlmd/internal/linalg"
	"mlmd/internal/precision"
)

// This file implements the paper's nlp_prop kernel — the GEMMified nonlocal
// correction of Sec. V.B.5. Switching from the finite-difference to the
// Kohn–Sham-orbital representation turns the nonlocal operator into dense
// matrix products (Eq. 5):
//
//	Ψ(t) −= δ · Ψ(0) · [Ψ(0)† Ψ(t)]
//
// realized as two CGEMM calls: the Norb×Norb overlap O = Ψ(0)†Ψ(t), then the
// rank-Norb update Ψ(t) −= δ Ψ(0) O. Because the correction is perturbative
// it tolerates low precision (hybrid FP32/BF16, Sec. V.B.7/VI.C).

// Scissor applies the time-dependent scissor-style nonlocal correction of
// Eq. (5). psi0 holds Ψ(0) (reference orbitals), psi holds Ψ(t), both SoA —
// conveniently, SoA storage *is* the Ngrid×Norb row-major matrix Ψ.
// Delta is the (small, complex) correction strength times Δt.
//
// A Scissor owns its scratch — the Norb×Norb overlap matrix and, in the BF16
// modes, the two quantized Ngrid×Norb operand copies — grown on first use
// and reused, so Apply does not allocate in the QD loop. One Scissor must
// therefore not be applied from two goroutines at once (each domain's
// Propagator has its own). Both products run on linalg.CGEMMBlocked and so
// on the CGEMM micro-kernel: the Gram-shaped overlap sharded over its Norb
// rows, the tall-skinny update over mesh rows.
type Scissor struct {
	Delta complex128
	// Mode selects the compute precision of the two GEMM calls. ModeFP64
	// computes in complex128; other modes quantize through the emulated
	// BF16/FP32 pipeline before accumulating in FP64 storage.
	Mode   precision.Mode
	work   []complex128
	q0, qt []complex128
}

// Apply performs Ψ(t) −= δ Ψ(0) Ψ(0)† Ψ(t) in place.
func (sc *Scissor) Apply(psi0, psi *grid.WaveField) {
	if psi0.G != psi.G || psi0.Norb != psi.Norb {
		panic("tddft: Scissor shape mismatch")
	}
	if psi0.Layout != grid.LayoutSoA || psi.Layout != grid.LayoutSoA {
		panic("tddft: Scissor requires SoA layout")
	}
	ngrid := psi.G.Len()
	norb := psi.Norb
	if len(sc.work) < norb*norb {
		sc.work = make([]complex128, norb*norb)
	}
	o := sc.work[:norb*norb]
	dv := complex(psi.G.DV(), 0)
	quant := sc.Mode == precision.ModeBF16 || sc.Mode == precision.ModeBF16x2 || sc.Mode == precision.ModeBF16x3
	a0 := psi0.Data
	at := psi.Data
	if quant {
		sc.q0 = quantizeBF16(sc.q0, psi0.Data, sc.Mode.Components())
		sc.qt = quantizeBF16(sc.qt, psi.Data, sc.Mode.Components())
		a0, at = sc.q0, sc.qt
	}
	// CGEMM (1): O = Ψ(0)† Ψ(t), Norb×Norb from (Ngrid×Norb)†(Ngrid×Norb).
	linalg.CGEMMParallel(linalg.ConjTrans, linalg.NoTrans, norb, norb, ngrid,
		dv, a0, norb, at, norb, 0, o, norb)
	// CGEMM (2): Ψ(t) −= δ Ψ(0) O.
	linalg.CGEMMParallel(linalg.NoTrans, linalg.NoTrans, ngrid, norb, norb,
		-sc.Delta, a0, norb, o, norb, 1, psi.Data, norb)
}

// quantizeBF16 rounds the real and imaginary parts of each amplitude to an
// n-component BF16 sum, emulating the float_to_BF16xN operand conversion.
// The result reuses dst's storage when it is large enough.
func quantizeBF16(dst, src []complex128, comps int) []complex128 {
	if cap(dst) < len(src) {
		dst = make([]complex128, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		re := quantScalar(real(v), comps)
		im := quantScalar(imag(v), comps)
		dst[i] = complex(re, im)
	}
	return dst
}

func quantScalar(v float64, comps int) float64 {
	var sum float64
	rem := float32(v)
	for p := 0; p < comps; p++ {
		c := precision.FromFloat32(rem).Float32()
		sum += float64(c)
		rem -= c
	}
	return sum
}

// ScissorFlops returns the FLOP count of one Apply: two complex GEMMs.
func ScissorFlops(ngrid, norb int) uint64 {
	return linalg.CGEMMFlops(norb, norb, ngrid) + linalg.CGEMMFlops(ngrid, norb, norb)
}
