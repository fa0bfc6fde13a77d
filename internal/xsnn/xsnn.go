// Package xsnn implements the excited-state force blending of the XS-NNQMD
// module (Eq. 4 of the paper): two force models — ground-state (GS) and
// excited-state (XS) — predict forces from the same inputs, and the total
// force is F_i = (1−w_i) F_GS,i + w_i F_XS,i with the XS fraction w_i set by
// the photoexcited-electron count n_exc reported by DC-MESH per domain
// (the multiscale XN/NN handshaking, MSA3, Sec. V.A.8). The clamp, the
// force blend and the blended energy here are the only copies: the sharded
// engine (internal/shard) calls them too.
package xsnn

import (
	"fmt"
	"math"

	"mlmd/internal/md"
)

// Blend combines a GS and an XS force field with per-atom excitation
// weights. It implements md.ForceField.
type Blend struct {
	GS, XS md.ForceField
	// PerAtomW gives each atom its blending weight — the per-domain
	// excitation map projected onto atoms; nil means every weight is 0.
	PerAtomW []float64

	fBuf []float64
}

// NewBlend wires the two models with w = 0 (pure ground state).
func NewBlend(gs, xs md.ForceField) *Blend {
	return &Blend{GS: gs, XS: xs}
}

// SetPerAtomWeights installs per-atom weights (copied, clamped).
func (b *Blend) SetPerAtomWeights(w []float64) { b.PerAtomW = ClampWeights(b.PerAtomW, w) }

// ClampWeights copies w into dst's storage, each weight clamped to [0,1],
// and returns the copy.
func ClampWeights(dst, w []float64) []float64 {
	dst = append(dst[:0], w...)
	for i, v := range dst {
		dst[i] = clamp01(v)
	}
	return dst
}

func clamp01(w float64) float64 {
	if w < 0 {
		return 0
	}
	if w > 1 {
		return 1
	}
	return w
}

// WeightFromExcitation maps a photoexcited electron count per cell to the
// XS model fraction: w = n_exc / n_sat saturating at 1. The saturation
// scale n_sat is the excitation density at which the FE well fully flattens
// (material-specific; the ferro model uses ~0.5 electrons/cell).
func WeightFromExcitation(nExc, nSat float64) float64 {
	if nSat <= 0 {
		panic(fmt.Sprintf("xsnn: nSat %g must be positive", nSat))
	}
	return clamp01(nExc / nSat)
}

// BlendForce is Eq. 4 for one force component: (1−w)·fGS + w·fXS.
func BlendForce(w, fGS, fXS float64) float64 { return (1-w)*fGS + w*fXS }

// BlendEnergy is the blended energy (1−w̄)E_GS + w̄E_XS with w̄ = wSum/n the
// mean weight of n atoms (exact for uniform weights).
func BlendEnergy(eGS, eXS, wSum float64, n int) float64 {
	wMean := wSum / float64(n)
	return (1-wMean)*eGS + wMean*eXS
}

// ComputeForces evaluates both models and blends: implements md.ForceField.
// The returned energy is BlendEnergy's.
func (b *Blend) ComputeForces(sys *md.System) float64 {
	if b.PerAtomW != nil && len(b.PerAtomW) != sys.N {
		panic("xsnn: per-atom weight length mismatch")
	}
	if len(b.fBuf) != len(sys.F) {
		b.fBuf = make([]float64, len(sys.F))
	}
	eGS := b.GS.ComputeForces(sys)
	copy(b.fBuf, sys.F)
	eXS := b.XS.ComputeForces(sys)
	var wSum float64
	for i := 0; i < sys.N; i++ {
		var w float64
		if b.PerAtomW != nil {
			w = b.PerAtomW[i]
		}
		wSum += w
		for k := 3 * i; k < 3*i+3; k++ {
			sys.F[k] = BlendForce(w, b.fBuf[k], sys.F[k])
		}
	}
	return BlendEnergy(eGS, eXS, wSum, sys.N)
}

// DecayExcitation relaxes an excitation map toward zero with lifetime tau
// over time dt (carrier recombination between pulses).
func DecayExcitation(w []float64, tau, dt float64) {
	if tau <= 0 {
		return
	}
	f := math.Exp(-dt / tau)
	for i := range w {
		w[i] *= f
	}
}
