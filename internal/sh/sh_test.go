package sh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState([]float64{0, 1}, []float64{1}, 0.01, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewState([]float64{0}, []float64{1.5}, 0.01, 1); err == nil {
		t.Error("occupation > 1 accepted")
	}
	if _, err := NewState([]float64{0, 1}, []float64{1, 0}, 0.01, 1); err != nil {
		t.Errorf("valid state rejected: %v", err)
	}
}

func TestOccupationConservation(t *testing.T) {
	e := []float64{-0.5, -0.3, 0.1, 0.2}
	f := []float64{1, 0.7, 0.2, 0}
	s, _ := NewState(e, f, 0.02, 42)
	want := s.TotalOccupation()
	cs := []Coupling{{0, 2, 0.4}, {1, 3, 0.3}, {0, 1, 0.2}, {2, 3, 0.5}}
	for i := 0; i < 500; i++ {
		s.Step(cs, 0.5)
	}
	if got := s.TotalOccupation(); math.Abs(got-want) > 1e-12 {
		t.Errorf("occupation drifted: %g -> %g", want, got)
	}
	for i, v := range s.F {
		if v < -1e-12 || v > 1+1e-12 {
			t.Errorf("occupation %d out of range: %g", i, v)
		}
	}
}

func TestOccupationConservationProperty(t *testing.T) {
	f := func(seed int64, d1, d2 float64) bool {
		e := []float64{-0.4, 0.0, 0.3}
		occ := []float64{0.9, 0.5, 0.1}
		s, _ := NewState(e, occ, 0.01, seed)
		cs := []Coupling{{0, 1, math.Abs(d1)}, {1, 2, math.Abs(d2)}}
		for i := 0; i < 50; i++ {
			s.Step(cs, 1.0)
		}
		return math.Abs(s.TotalOccupation()-1.5) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDetailedBalanceFavorsDownwardHops(t *testing.T) {
	// Start with population in the upper level; at low temperature it must
	// relax downward and stay there.
	e := []float64{-0.2, 0.2}
	s, _ := NewState(e, []float64{0, 1}, 0.001, 7)
	cs := []Coupling{{0, 1, 0.5}}
	for i := 0; i < 2000; i++ {
		s.Step(cs, 1.0)
	}
	if s.F[0] < 0.99 {
		t.Errorf("population did not relax down: f = %v", s.F)
	}
	// At very high temperature, populations should mix instead.
	s2, _ := NewState(e, []float64{1, 0}, 10.0, 8)
	for i := 0; i < 2000; i++ {
		s2.Step(cs, 1.0)
	}
	if s2.F[1] < 0.2 {
		t.Errorf("high-T populations did not mix: f = %v", s2.F)
	}
}

func TestZeroCouplingFreezesOccupations(t *testing.T) {
	e := []float64{-0.2, 0.2}
	s, _ := NewState(e, []float64{0.8, 0.2}, 0.01, 3)
	for i := 0; i < 100; i++ {
		s.Step(nil, 1.0)
		s.Step([]Coupling{{0, 1, 0}}, 1.0)
	}
	if s.F[0] != 0.8 || s.F[1] != 0.2 {
		t.Errorf("occupations changed without coupling: %v", s.F)
	}
}

func TestExciteClamps(t *testing.T) {
	e := []float64{-0.2, 0.2}
	s, _ := NewState(e, []float64{0.5, 0.9}, 0.01, 4)
	// Only 0.1 of space available in the target.
	moved := s.Excite(0, 1, 0.4)
	if math.Abs(moved-0.1) > 1e-12 {
		t.Errorf("moved %g, want 0.1 (clamped by target space)", moved)
	}
	if math.Abs(s.TotalOccupation()-1.4) > 1e-12 {
		t.Error("Excite broke conservation")
	}
	// Clamped by source.
	s2, _ := NewState(e, []float64{0.05, 0}, 0.01, 5)
	if moved := s2.Excite(0, 1, 1.0); math.Abs(moved-0.05) > 1e-12 {
		t.Errorf("moved %g, want 0.05 (clamped by source)", moved)
	}
}

func TestFermiDirac(t *testing.T) {
	if FermiDirac(0, 0, 0.01) != 0.5 {
		t.Error("FD at mu must be 1/2")
	}
	if FermiDirac(-1, 0, 0.01) < 0.999999 {
		t.Error("FD far below mu must be ~1")
	}
	if FermiDirac(1, 0, 0.01) > 1e-6 {
		t.Error("FD far above mu must be ~0")
	}
	// kT = 0 limit.
	if FermiDirac(-0.1, 0, 0) != 1 || FermiDirac(0.1, 0, 0) != 0 || FermiDirac(0, 0, 0) != 0.5 {
		t.Error("zero-temperature FD wrong")
	}
	// Monotone decreasing in e.
	prev := 1.0
	for e := -0.5; e <= 0.5; e += 0.01 {
		v := FermiDirac(e, 0, 0.05)
		if v > prev+1e-12 {
			t.Fatal("FD not monotone")
		}
		prev = v
	}
}

func TestCouplingsFromOverlaps(t *testing.T) {
	n := 3
	o := make([]complex128, n*n)
	o[0*n+1] = complex(0.3, 0.4) // |.|=0.5
	o[1*n+2] = complex(0.001, 0)
	cs := CouplingsFromOverlaps(o, n, 0.5, 0.01)
	if len(cs) != 1 {
		t.Fatalf("got %d couplings, want 1 (threshold prunes weak)", len(cs))
	}
	if cs[0].A != 0 || cs[0].B != 1 || math.Abs(cs[0].D-1.0) > 1e-12 {
		t.Errorf("coupling = %+v, want {0 1 1.0}", cs[0])
	}
}
