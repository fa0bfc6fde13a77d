package core

import (
	"math"
	"testing"

	"mlmd/internal/ferro"
	"mlmd/internal/grid"
	"mlmd/internal/maxwell"
	"mlmd/internal/tddft"
	"mlmd/internal/units"
)

func smallDCMESH(t testing.TB, pulseAmp float64) *DCMESH {
	t.Helper()
	cfg := DefaultDCMESHConfig()
	cfg.Global = grid.NewCubic(12, 0.8)
	cfg.Dx, cfg.Dy, cfg.Dz = 2, 2, 1
	cfg.Norb = 4
	cfg.NQD = 25
	cfg.GroundIters = 500
	cfg.Pulse = maxwell.NewPulse(pulseAmp, units.Hartree(3.0), 0.5, 0.5)
	m, err := NewDCMESH(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewDCMESHValidation(t *testing.T) {
	cfg := DefaultDCMESHConfig()
	cfg.Norb = 1
	if _, err := NewDCMESH(cfg); err == nil {
		t.Error("Norb=1 accepted")
	}
	cfg = DefaultDCMESHConfig()
	cfg.NQD = 0
	if _, err := NewDCMESH(cfg); err == nil {
		t.Error("NQD=0 accepted")
	}
	cfg = DefaultDCMESHConfig()
	cfg.Dx = 5 // does not divide 16
	if _, err := NewDCMESH(cfg); err == nil {
		t.Error("non-divisible decomposition accepted")
	}
}

func TestDCMESHDomainsArePrepared(t *testing.T) {
	m := smallDCMESH(t, 0.0)
	if len(m.Domains) != 4 {
		t.Fatalf("domains = %d, want 4", len(m.Domains))
	}
	for _, d := range m.Domains {
		// Ground-state energies ascending.
		for s := 1; s < len(d.Energy); s++ {
			if d.Energy[s] < d.Energy[s-1]-1e-9 {
				t.Fatalf("domain %d energies not sorted: %v", d.Dom.ID, d.Energy)
			}
		}
		// Half-filled occupations.
		var tot float64
		for _, f := range d.SH.F {
			tot += f
		}
		if math.Abs(tot-2) > 1e-12 {
			t.Errorf("domain %d total occupation %g, want 2", d.Dom.ID, tot)
		}
	}
}

func TestDCMESHWithoutPulseStaysGround(t *testing.T) {
	m := smallDCMESH(t, 0.0) // zero amplitude: no light
	nExc := m.MDStep()
	for i, n := range nExc {
		if n > 5e-3 {
			t.Errorf("domain %d excited (n=%g) without a pulse", i, n)
		}
	}
	if d := m.NormDrift(); d > 1e-9 {
		t.Errorf("norm drift %g", d)
	}
}

func TestDCMESHPulseExcitesElectrons(t *testing.T) {
	weak := smallDCMESH(t, 0.02)
	strong := smallDCMESH(t, 0.4)
	for s := 0; s < 2; s++ {
		weak.MDStep()
		strong.MDStep()
	}
	nw, ns := weak.TotalExcitation(), strong.TotalExcitation()
	t.Logf("excitation: weak pulse %g, strong pulse %g", nw, ns)
	if ns <= 0 {
		t.Fatal("strong pulse produced no excitation")
	}
	if ns <= nw {
		t.Errorf("stronger pulse should excite more: %g vs %g", ns, nw)
	}
	// Unitarity preserved under driving.
	if d := strong.NormDrift(); d > 1e-9 {
		t.Errorf("norm drift %g under strong pulse", d)
	}
	// Excitation bounded by available electrons.
	for _, d := range strong.Domains {
		if d.NExc < 0 || d.NExc > 2+1e-9 {
			t.Errorf("domain %d n_exc = %g out of [0,2]", d.Dom.ID, d.NExc)
		}
	}
}

func TestDCMESHTimeAdvances(t *testing.T) {
	m := smallDCMESH(t, 0.1)
	if m.Time() != 0 {
		t.Error("initial time not zero")
	}
	m.MDStep()
	want := float64(m.Cfg.NQD) * m.Cfg.DtQD
	if math.Abs(m.Time()-want) > 1e-12 {
		t.Errorf("time = %g, want %g", m.Time(), want)
	}
}

func newAnalyticXSNNQMD(t testing.TB, nx, ny, nz int) *XSNNQMD {
	t.Helper()
	sys, lat, err := ferro.NewLattice(nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	gs := ferro.DefaultEffHam(lat)
	xs := ferro.DefaultEffHam(lat)
	xs.SetExcitation(1.0)
	// Polarize uniformly.
	s0 := gs.S0()
	for c := 0; c < lat.NumCells(); c++ {
		lat.SetSoftMode(sys, c, 0, 0, s0)
	}
	x, err := NewXSNNQMD(sys, lat, gs, xs, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestXSNNQMDGroundStateKeepsPolarization(t *testing.T) {
	x := newAnalyticXSNNQMD(t, 6, 6, 2)
	x.SetUniformExcitation(0)
	x.Step(100)
	pz := x.PolarizationField().MeanPz()
	if pz <= 0 {
		t.Errorf("polarization lost in ground state: %g", pz)
	}
}

func TestXSNNQMDFullExcitationDepolarizes(t *testing.T) {
	x := newAnalyticXSNNQMD(t, 6, 6, 2)
	pz0 := x.PolarizationField().MeanPz()
	x.SetUniformExcitation(1)
	x.Step(400)
	pz := x.PolarizationField().MeanPz()
	t.Logf("mean Pz: %g -> %g under full excitation", pz0, pz)
	if math.Abs(pz) > 0.5*pz0 {
		t.Errorf("full excitation should depolarize: %g -> %g", pz0, pz)
	}
}

// TestXSNNQMDExcitationAllocatesNothing: the per-atom weights pushed into
// the force field on every decaying step reuse one slice, so after the
// receiver sized its copy, an excitation update allocates nothing.
func TestXSNNQMDExcitationAllocatesNothing(t *testing.T) {
	x := newAnalyticXSNNQMD(t, 4, 4, 2)
	x.SetUniformExcitation(0.5)
	if a := testing.AllocsPerRun(10, func() { x.SetUniformExcitation(0.25) }); a != 0 {
		t.Errorf("SetUniformExcitation allocates %g times per call, want 0", a)
	}
}

func TestXSNNQMDDomainMapping(t *testing.T) {
	x := newAnalyticXSNNQMD(t, 4, 4, 2)
	// 2x2x1 domains: excite only domain (0,0,0).
	nExc := []float64{1, 0, 0, 0}
	if err := x.SetExcitationFromDomains(nExc, 2, 2, 1, 1.0); err != nil {
		t.Fatal(err)
	}
	l := x.Lat
	// Cells in the first block (cx<2, cy<2) get w=1; others 0.
	for cx := 0; cx < l.Nx; cx++ {
		for cy := 0; cy < l.Ny; cy++ {
			for cz := 0; cz < l.Nz; cz++ {
				w := x.ExcitationPerCell[l.CellIndex(cx, cy, cz)]
				want := 0.0
				if cx < 2 && cy < 2 {
					want = 1
				}
				if w != want {
					t.Fatalf("cell (%d,%d,%d) w = %g, want %g", cx, cy, cz, w, want)
				}
			}
		}
	}
	// Mismatched domain count errors.
	if err := x.SetExcitationFromDomains([]float64{1}, 2, 2, 1, 1); err == nil {
		t.Error("wrong-length excitation accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	cfg := DefaultPipelineConfig()
	cfg.LatNx, cfg.LatNy, cfg.LatNz = 16, 16, 2
	cfg.SkyGrid = 2
	cfg.SkyRadius = 2
	cfg.DCMESH.Global = grid.NewCubic(12, 0.8)
	cfg.DCMESH.Dx, cfg.DCMESH.Dy, cfg.DCMESH.Dz = 2, 2, 1
	cfg.DCMESH.NQD = 25
	cfg.DCMESH.GroundIters = 120
	cfg.DCMESH.Pulse = maxwell.NewPulse(0.4, units.Hartree(3.0), 0.5, 0.5)
	cfg.PulseMDSteps = 2
	cfg.ResponseSteps = 250
	cfg.NSat = 0.02
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("charge: before %.2f, after pulse %.2f, final %.2f; n_exc %.3g; Pz %0.4f -> %0.4f; switched %v",
		res.ChargeBefore, res.ChargeAfterPulse, res.ChargeFinal,
		res.TotalExcitation, res.MeanPzBefore, res.MeanPzFinal, res.Switched)
	// The prepared superlattice carries |Q| = SkyGrid².
	if math.Abs(math.Abs(res.ChargeBefore)-4) > 1 {
		t.Errorf("initial charge %g, want |Q| ≈ 4", res.ChargeBefore)
	}
	if res.TotalExcitation <= 0 {
		t.Error("pulse produced no excitation")
	}
	// The strong pulse must switch the topological texture (Fig. 3).
	if !res.Switched {
		t.Error("topological texture did not switch under the strong pulse")
	}
}

func TestDCMESHImplementationsAgreeOnExcitation(t *testing.T) {
	mk := func(impl tddft.Impl) float64 {
		cfg := DefaultDCMESHConfig()
		cfg.Global = grid.NewCubic(12, 0.8)
		cfg.Dx, cfg.Dy, cfg.Dz = 2, 1, 1
		cfg.NQD = 20
		cfg.GroundIters = 100
		cfg.Impl = impl
		cfg.Pulse = maxwell.NewPulse(0.3, units.Hartree(3.0), 0.5, 0.5)
		m, err := NewDCMESH(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.MDStep()
		return m.TotalExcitation()
	}
	// Note ImplBaseline needs AoS fields; the module is SoA-only, so
	// compare the three SoA implementations.
	a := mk(tddft.ImplReordered)
	b := mk(tddft.ImplBlocked)
	c := mk(tddft.ImplParallel)
	if math.Abs(a-b) > 1e-9 || math.Abs(a-c) > 1e-9 {
		t.Errorf("implementations disagree: %g %g %g", a, b, c)
	}
}

func TestCurrentFeedbackChangesField(t *testing.T) {
	// With TDCDFT feedback on, the domain currents act back on the light
	// field: after identical pulses, the two fields must differ.
	mk := func(feedback bool) *DCMESH {
		cfg := DefaultDCMESHConfig()
		cfg.Global = grid.NewCubic(12, 0.8)
		cfg.Dx, cfg.Dy, cfg.Dz = 2, 1, 1
		cfg.NQD = 20
		cfg.GroundIters = 150
		cfg.CurrentFeedback = feedback
		cfg.Pulse = maxwell.NewPulse(0.3, units.Hartree(3.0), 0.5, 0.5)
		m, err := NewDCMESH(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	with := mk(true)
	without := mk(false)
	for s := 0; s < 2; s++ {
		with.MDStep()
		without.MDStep()
	}
	var jTot float64
	for _, j := range with.Field.J {
		jTot += math.Abs(j)
	}
	if jTot == 0 {
		t.Fatal("feedback installed no current sources")
	}
	for _, j := range without.Field.J {
		if j != 0 {
			t.Fatal("feedback-off run has current sources")
		}
	}
	// One more step: the driven fields now evolve differently.
	with.MDStep()
	without.MDStep()
	if math.Abs(with.FieldEnergy()-without.FieldEnergy()) == 0 {
		t.Error("current feedback had no effect on the field")
	}
}
