package core

import (
	"math"
	"testing"

	"mlmd/internal/cluster"
	"mlmd/internal/maxwell"
	"mlmd/internal/units"
)

// TestDistributedMatchesSerial: the distributed step runs every domain
// through the serial MDStep's advanceDomain, so at every rank count n_exc
// and every domain's wavefunctions are bitwise the serial run's, step after
// step.
func TestDistributedMatchesSerial(t *testing.T) {
	const steps = 2
	serial := smallDCMESH(t, 0.3)
	want := make([][]float64, steps)
	for s := range want {
		want[s] = append([]float64(nil), serial.MDStep()...)
	}
	for _, p := range []int{1, 2, 4} {
		dist := smallDCMESH(t, 0.3)
		comm, err := cluster.NewComm(p, cluster.Slingshot11())
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < steps; s++ {
			res, err := dist.MDStepDistributed(comm)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.NExc) != len(want[s]) {
				t.Fatalf("P=%d step %d: %d excitations, want %d", p, s, len(res.NExc), len(want[s]))
			}
			for i := range want[s] {
				if math.Float64bits(res.NExc[i]) != math.Float64bits(want[s][i]) {
					t.Errorf("P=%d step %d domain %d: distributed n_exc %v, serial %v", p, s, i, res.NExc[i], want[s][i])
				}
			}
			if res.VirtualTime <= 0 {
				t.Errorf("P=%d: virtual clock did not advance", p)
			}
		}
		for di, d := range dist.Domains {
			ref := serial.Domains[di].Psi.Data
			for k, v := range d.Psi.Data {
				if math.Float64bits(real(v)) != math.Float64bits(real(ref[k])) ||
					math.Float64bits(imag(v)) != math.Float64bits(imag(ref[k])) {
					t.Fatalf("P=%d domain %d: Psi[%d] = %v, serial %v", p, di, k, v, ref[k])
				}
			}
		}
	}
}

func TestDistributedRankCountValidation(t *testing.T) {
	m := smallDCMESH(t, 0.1)
	comm, _ := cluster.NewComm(16, cluster.Slingshot11()) // more ranks than domains
	if _, err := m.MDStepDistributed(comm); err == nil {
		t.Error("too many ranks accepted")
	}
}

func TestDistributedTimeAdvancesLikeSerial(t *testing.T) {
	m := smallDCMESH(t, 0.1)
	comm, _ := cluster.NewComm(4, cluster.Slingshot11())
	if _, err := m.MDStepDistributed(comm); err != nil {
		t.Fatal(err)
	}
	want := float64(m.Cfg.NQD) * m.Cfg.DtQD
	if math.Abs(m.Time()-want) > 1e-12 {
		t.Errorf("time = %g, want %g", m.Time(), want)
	}
}

func TestDistributedVirtualTimeIncludesCollectives(t *testing.T) {
	// With 4 ranks, the final clock must include at least the gather +
	// barrier costs on top of compute.
	cfg := DefaultDCMESHConfig()
	cfg.Global = smallDCMESH(t, 0).Cfg.Global
	_ = cfg
	m := smallDCMESH(t, 0.2)
	comm, _ := cluster.NewComm(4, cluster.Slingshot11())
	res, err := m.MDStepDistributed(comm)
	if err != nil {
		t.Fatal(err)
	}
	net := cluster.Slingshot11()
	minCollectives := net.Gather(4, 16) // the n_exc pairs
	if res.VirtualTime < minCollectives {
		t.Errorf("virtual time %g below collective floor %g", res.VirtualTime, minCollectives)
	}
	// Using a pulse, some domain must have excited electrons.
	var total float64
	for _, n := range res.NExc {
		total += n
	}
	if total <= 0 {
		t.Error("no excitation through the distributed path")
	}
}

func TestDistributedMultiStep(t *testing.T) {
	// Several distributed steps accumulate excitation monotonically under
	// a resonant pulse window.
	cfg := DefaultDCMESHConfig()
	cfg.Global = smallDCMESH(t, 0).Cfg.Global // reuse geometry
	m := smallDCMESH(t, 0.3)
	m.Cfg.Pulse = maxwell.NewPulse(0.3, units.Hartree(3.0), 1.0, 1.0)
	comm, _ := cluster.NewComm(2, cluster.Slingshot11())
	var prev float64
	for s := 0; s < 2; s++ {
		if _, err := m.MDStepDistributed(comm); err != nil {
			t.Fatal(err)
		}
		tot := m.TotalExcitation()
		if tot+1e-9 < prev {
			t.Errorf("excitation decreased: %g -> %g", prev, tot)
		}
		prev = tot
	}
}
