package xsnn

import (
	"math"
	"testing"

	"mlmd/internal/md"
)

// constFF returns fixed forces and energy.
type constFF struct {
	f float64
	e float64
}

func (c constFF) ComputeForces(sys *md.System) float64 {
	for i := range sys.F {
		sys.F[i] = c.f
	}
	return c.e
}

func newSys(t *testing.T, n int) *md.System {
	t.Helper()
	sys, err := md.NewSystem(n, 10, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sys.Mass {
		sys.Mass[i] = 1
	}
	return sys
}

// uniform returns n copies of w.
func uniform(n int, w float64) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = w
	}
	return ws
}

func TestPureEndpoints(t *testing.T) {
	sys := newSys(t, 4)
	b := NewBlend(constFF{f: 1, e: 10}, constFF{f: 3, e: 30})
	b.SetPerAtomWeights(uniform(4, 0))
	if e := b.ComputeForces(sys); e != 10 || sys.F[0] != 1 {
		t.Errorf("w=0: e=%g f=%g", e, sys.F[0])
	}
	b.SetPerAtomWeights(uniform(4, 1))
	if e := b.ComputeForces(sys); e != 30 || sys.F[0] != 3 {
		t.Errorf("w=1: e=%g f=%g", e, sys.F[0])
	}
}

func TestLinearInterpolation(t *testing.T) {
	sys := newSys(t, 4)
	b := NewBlend(constFF{f: 1, e: 10}, constFF{f: 3, e: 30})
	b.SetPerAtomWeights(uniform(4, 0.25))
	e := b.ComputeForces(sys)
	if math.Abs(e-15) > 1e-12 {
		t.Errorf("blended energy = %g, want 15", e)
	}
	if math.Abs(sys.F[5]-1.5) > 1e-12 {
		t.Errorf("blended force = %g, want 1.5", sys.F[5])
	}
}

func TestWeightClamping(t *testing.T) {
	b := NewBlend(constFF{}, constFF{})
	b.SetPerAtomWeights(uniform(2, -0.5))
	if b.PerAtomW[0] != 0 {
		t.Errorf("negative weight not clamped: %g", b.PerAtomW[0])
	}
	b.SetPerAtomWeights(uniform(2, 1.7))
	if b.PerAtomW[0] != 1 {
		t.Errorf("overweight not clamped: %g", b.PerAtomW[0])
	}
}

func TestPerAtomWeights(t *testing.T) {
	sys := newSys(t, 3)
	b := NewBlend(constFF{f: 0, e: 0}, constFF{f: 2, e: 6})
	b.SetPerAtomWeights([]float64{0, 0.5, 1})
	e := b.ComputeForces(sys)
	if sys.F[0] != 0 || math.Abs(sys.F[3]-1) > 1e-12 || sys.F[6] != 2 {
		t.Errorf("per-atom blend wrong: %v", sys.F[:9])
	}
	// Mean weight 0.5 ⇒ energy 3.
	if math.Abs(e-3) > 1e-12 {
		t.Errorf("per-atom blended energy = %g, want 3", e)
	}
}

func TestWeightFromExcitation(t *testing.T) {
	if w := WeightFromExcitation(0, 0.5); w != 0 {
		t.Errorf("w(0) = %g", w)
	}
	if w := WeightFromExcitation(0.25, 0.5); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("w(half-sat) = %g", w)
	}
	if w := WeightFromExcitation(5, 0.5); w != 1 {
		t.Errorf("w(super-sat) = %g, want clamp to 1", w)
	}
	defer func() {
		if recover() == nil {
			t.Error("nSat=0 did not panic")
		}
	}()
	WeightFromExcitation(1, 0)
}

func TestDecayExcitation(t *testing.T) {
	w := []float64{1, 0.5, 0.2}
	DecayExcitation(w, 100, 100) // one lifetime
	for i, v := range []float64{1, 0.5, 0.2} {
		want := v * math.Exp(-1)
		if math.Abs(w[i]-want) > 1e-12 {
			t.Errorf("decay[%d] = %g, want %g", i, w[i], want)
		}
	}
	// Zero tau is a no-op.
	w2 := []float64{0.7}
	DecayExcitation(w2, 0, 10)
	if w2[0] != 0.7 {
		t.Error("tau=0 should not decay")
	}
}
