package xsnn

import (
	"fmt"
	"math"

	"mlmd/internal/md"
)

// Embedding implements the region-based multiscale force combination of the
// paper's metamodel-space algebra (Sec. V.A.8): a high-fidelity model (NN,
// standing for NN or QM) is embedded in a low-fidelity background (MM)
// inside a spatial region, with a smooth buffer so forces stay continuous —
// the NN/MM extension (ref [33]) of the adaptive QM/MM scheme (ref [51]).
//
// The combined force is F_i = w_i F_HI,i + (1−w_i) F_LO,i with w smoothly 1
// inside the region and 0 outside. The MSA assumption is that the
// *difference* between levels varies slowly, so the buffer blending costs
// little accuracy.
type Embedding struct {
	HI, LO md.ForceField
	// W is the per-atom high-fidelity weight in [0,1].
	W []float64
	f []float64
}

// NewEmbedding wires an embedding with all weights zero (pure low
// fidelity).
func NewEmbedding(hi, lo md.ForceField, n int) *Embedding {
	return &Embedding{HI: hi, LO: lo, W: make([]float64, n)}
}

// SetSphere installs a spherical high-fidelity region centered at c with
// inner radius rIn (w = 1) decaying smoothly to 0 at rOut, using the
// minimum image in sys's box.
func (e *Embedding) SetSphere(sys *md.System, c [3]float64, rIn, rOut float64) error {
	if rOut <= rIn || rIn < 0 {
		return fmt.Errorf("xsnn: bad embedding radii rIn=%g rOut=%g", rIn, rOut)
	}
	if len(e.W) != sys.N {
		return fmt.Errorf("xsnn: embedding sized for %d atoms, system has %d", len(e.W), sys.N)
	}
	for i := 0; i < sys.N; i++ {
		dx := md.MinImage1(sys.X[3*i]-c[0], sys.Lx)
		dy := md.MinImage1(sys.X[3*i+1]-c[1], sys.Ly)
		dz := md.MinImage1(sys.X[3*i+2]-c[2], sys.Lz)
		r := math.Sqrt(dx*dx + dy*dy + dz*dz)
		e.W[i] = smoothStep(r, rIn, rOut)
	}
	return nil
}

// smoothStep is 1 for r <= rIn, 0 for r >= rOut, and a C¹ cosine ramp
// between.
func smoothStep(r, rIn, rOut float64) float64 {
	switch {
	case r <= rIn:
		return 1
	case r >= rOut:
		return 0
	default:
		x := (r - rIn) / (rOut - rIn)
		return 0.5 * (1 + math.Cos(math.Pi*x))
	}
}

// HighFidelityAtoms returns the number of atoms with w > 0.5 — the cost
// driver of the adaptive scheme.
func (e *Embedding) HighFidelityAtoms() int {
	n := 0
	for _, w := range e.W {
		if w > 0.5 {
			n++
		}
	}
	return n
}

// ComputeForces implements md.ForceField.
func (e *Embedding) ComputeForces(sys *md.System) float64 {
	if len(e.W) != sys.N {
		panic("xsnn: embedding weight length mismatch")
	}
	if len(e.f) != len(sys.F) {
		e.f = make([]float64, len(sys.F))
	}
	eLO := e.LO.ComputeForces(sys)
	copy(e.f, sys.F)
	eHI := e.HI.ComputeForces(sys)
	var wSum float64
	for i := 0; i < sys.N; i++ {
		w := e.W[i]
		wSum += w
		for d := 0; d < 3; d++ {
			k := 3*i + d
			sys.F[k] = w*sys.F[k] + (1-w)*e.f[k]
		}
	}
	wMean := wSum / float64(sys.N)
	return wMean*eHI + (1-wMean)*eLO
}

// AdaptRegion grows or shrinks the high-fidelity weights from a per-atom
// trigger signal (e.g. committee disagreement or excitation density):
// atoms whose trigger exceeds threshold get w = 1; weights elsewhere decay
// by the relax factor per call, keeping recently-hot atoms in the region
// for hysteresis. Returns the new high-fidelity atom count.
func (e *Embedding) AdaptRegion(trigger []float64, threshold, relax float64) int {
	if len(trigger) != len(e.W) {
		panic("xsnn: trigger length mismatch")
	}
	for i, t := range trigger {
		if t >= threshold {
			e.W[i] = 1
		} else {
			e.W[i] *= relax
			if e.W[i] < 1e-3 {
				e.W[i] = 0
			}
		}
	}
	return e.HighFidelityAtoms()
}
