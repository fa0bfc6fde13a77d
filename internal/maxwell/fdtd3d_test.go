package maxwell

import (
	"math"
	"testing"

	"mlmd/internal/cluster"
	"mlmd/internal/shard/halo"
	"mlmd/internal/units"
)

func singleDomain(t testing.TB, n [3]int) (halo.Domain, *halo.Exchanger) {
	t.Helper()
	g3, err := cluster.NewGrid3D(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := halo.NewDomain(g3, 0, n, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := cluster.NewComm(1, cluster.Interconnect{})
	if err != nil {
		t.Fatal(err)
	}
	return d, halo.NewExchanger(comm, g3, 0)
}

// TestSim3DEnergyConservation is the closed-box property test: with no
// source, the leapfrog curl pair must keep the discrete field energy
// bounded over hundreds of steps — the collocated E²+B² measure oscillates
// (the scheme conserves a time-staggered quadratic), but it must neither
// decay nor grow secularly: every step stays inside a fixed envelope and
// the running mean is conserved to a fraction of a percent.
func TestSim3DEnergyConservation(t *testing.T) {
	cases := []struct {
		name string
		n    [3]int
		h    [3]float64
		seed uint64
	}{
		{"cubic8", [3]int{8, 8, 8}, [3]float64{1, 1, 1}, 1},
		{"slab", [3]int{12, 6, 4}, [3]float64{0.8, 1.0, 1.2}, 2},
		{"rod", [3]int{16, 4, 4}, [3]float64{1.5, 1.5, 1.5}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, ex := singleDomain(t, tc.n)
			hmin := math.Min(tc.h[0], math.Min(tc.h[1], tc.h[2]))
			dt := 0.9 * hmin / math.Sqrt(3) / units.LightSpeed
			sim, err := NewSim3D(d, Sim3DConfig{H: tc.h, Dt: dt})
			if err != nil {
				t.Fatal(err)
			}
			sim.InitRandom(tc.seed, 1e-3)
			e0 := sim.Energy()
			if e0 <= 0 {
				t.Fatal("zero initial energy")
			}
			steps := 600
			if testing.Short() {
				steps = 200
			}
			window := steps / 6
			var early, late float64
			for s := 0; s < steps; s++ {
				sim.Step(ex)
				e := sim.Energy()
				if e < 0.3*e0 || e > 3*e0 {
					t.Fatalf("step %d: energy left the leapfrog envelope: E/e0 = %.3f", s, e/e0)
				}
				if s < window {
					early += e
				}
				if s >= steps-window {
					late += e
				}
			}
			if rel := math.Abs(late-early) / early; rel > 0.01 {
				t.Fatalf("mean energy drifted by %.3f%% over %d steps", 100*rel, steps)
			}
		})
	}
}

// TestSim3DSourceInjectsEnergy checks that the point antenna feeds the
// box: starting from vacuum, driving Jz at one cell must light up the
// fields.
func TestSim3DSourceInjectsEnergy(t *testing.T) {
	n := [3]int{8, 8, 8}
	d, ex := singleDomain(t, n)
	dt := 0.9 / math.Sqrt(3) / units.LightSpeed
	sim, err := NewSim3D(d, Sim3DConfig{
		H: [3]float64{1, 1, 1}, Dt: dt,
		Drive:     NewPulse(1e-2, 0.057, 0.05, 0.05),
		Source:    [3]int{4, 4, 4},
		SourceAmp: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 100; s++ {
		sim.Step(ex)
	}
	if sim.Energy() <= 0 {
		t.Fatalf("driven box stayed dark: E = %g", sim.Energy())
	}
	if sim.Time() <= 0 {
		t.Fatal("time did not advance")
	}
}

// TestNewSim3DErrors exercises the fail-fast configuration checks.
func TestNewSim3DErrors(t *testing.T) {
	g3, _ := cluster.NewGrid3D(1, 1, 1)
	good, err := halo.NewDomain(g3, 0, [3]int{8, 8, 8}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	okDt := 0.5 / math.Sqrt(3) / units.LightSpeed
	base := Sim3DConfig{H: [3]float64{1, 1, 1}, Dt: okDt}
	cases := []struct {
		name string
		d    halo.Domain
		mut  func(*Sim3DConfig)
	}{
		{"wrong ghost width", func() halo.Domain {
			d, err := halo.NewDomain(g3, 0, [3]int{8, 8, 8}, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}(), nil},
		{"zero spacing", good, func(c *Sim3DConfig) { c.H[2] = 0 }},
		{"zero dt", good, func(c *Sim3DConfig) { c.Dt = 0 }},
		{"CFL violation", good, func(c *Sim3DConfig) { c.Dt = 1 / units.LightSpeed }},
		{"source out of bounds", good, func(c *Sim3DConfig) { c.Source = [3]int{8, 0, 0} }},
		{"negative source", good, func(c *Sim3DConfig) { c.Source = [3]int{0, -1, 0} }},
	}
	for _, tc := range cases {
		cfg := base
		if tc.mut != nil {
			tc.mut(&cfg)
		}
		if _, err := NewSim3D(tc.d, cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestSim3DPartials pins the GridWorkload surface: partial sums match the
// energy integral and the packed fields have the gather frame length.
func TestSim3DPartials(t *testing.T) {
	n := [3]int{6, 4, 4}
	d, ex := singleDomain(t, n)
	dt := 0.5 / math.Sqrt(3) / units.LightSpeed
	sim, err := NewSim3D(d, Sim3DConfig{H: [3]float64{1, 1, 1}, Dt: dt})
	if err != nil {
		t.Fatal(err)
	}
	sim.InitRandom(9, 1)
	for s := 0; s < 10; s++ {
		sim.Step(ex)
	}
	p := make([]float64, sim.PartialLen())
	sim.Partials(p)
	dv := 1.0
	want := (p[0] + p[1]) * dv / (8 * math.Pi)
	if got := sim.Energy(); math.Abs(got-want) > 1e-15*math.Abs(want) {
		t.Fatalf("Energy %g does not match partials %g", got, want)
	}
	if sim.NumFields() != 2 {
		t.Fatalf("NumFields = %d", sim.NumFields())
	}
	for idx := 0; idx < 2; idx++ {
		buf := sim.PackField(idx, nil)
		if len(buf) != n[0]*n[1]*n[2]*sim.FieldWidth(idx) {
			t.Fatalf("field %d packs %d floats", idx, len(buf))
		}
	}
}

// formulaStep is Sim3D.Step written out as the Yee loops stood before the
// curl kernel: blocking ghost refreshes, then every owned cell by the
// expressions below. It is the formula the kernel-backed Step must keep.
func formulaStep(s *Sim3D, ex *halo.Exchanger) {
	for a := 0; a < 3; a++ {
		s.B.RefreshAxis(ex, a)
	}
	formulaUpdateE(s)
	s.applySource()
	for a := 0; a < 3; a++ {
		s.E.RefreshAxis(ex, a)
	}
	formulaUpdateB(s)
	s.t += s.Dt
	s.step++
}

func formulaUpdateE(s *Sim3D) {
	e, b := s.E.Data, s.B.Data
	sx := s.E.Ext[1] * s.E.Ext[2] * 3
	sy := s.E.Ext[2] * 3
	sz := 3
	c := units.LightSpeed
	dt := s.Dt
	hx, hy, hz := s.H[0], s.H[1], s.H[2]
	for ox := 0; ox < s.D.Own[0]; ox++ {
		for oy := 0; oy < s.D.Own[1]; oy++ {
			base := s.E.OwnIndex(ox, oy, 0)
			for oz := 0; oz < s.D.Own[2]; oz++ {
				cx := (b[base+2]-b[base-sy+2])/hy - (b[base+1]-b[base-sz+1])/hz
				cy := (b[base]-b[base-sz])/hz - (b[base+2]-b[base-sx+2])/hx
				cz := (b[base+1]-b[base-sx+1])/hx - (b[base]-b[base-sy])/hy
				e[base] += dt * c * cx
				e[base+1] += dt * c * cy
				e[base+2] += dt * c * cz
				base += 3
			}
		}
	}
}

func formulaUpdateB(s *Sim3D) {
	e, b := s.E.Data, s.B.Data
	sx := s.E.Ext[1] * s.E.Ext[2] * 3
	sy := s.E.Ext[2] * 3
	sz := 3
	c := units.LightSpeed
	dt := s.Dt
	hx, hy, hz := s.H[0], s.H[1], s.H[2]
	for ox := 0; ox < s.D.Own[0]; ox++ {
		for oy := 0; oy < s.D.Own[1]; oy++ {
			base := s.E.OwnIndex(ox, oy, 0)
			for oz := 0; oz < s.D.Own[2]; oz++ {
				cx := (e[base+sy+2]-e[base+2])/hy - (e[base+sz+1]-e[base+1])/hz
				cy := (e[base+sz]-e[base])/hz - (e[base+sx+2]-e[base+2])/hx
				cz := (e[base+sx+1]-e[base+1])/hx - (e[base+sy]-e[base])/hy
				b[base] -= dt * c * cx
				b[base+1] -= dt * c * cy
				b[base+2] -= dt * c * cz
				base += 3
			}
		}
	}
}

// TestSim3DStepIsTheFormula: the kernel-backed Step reproduces the written-
// out Yee loops bit for bit over 50 driven steps with anisotropic spacings,
// on the identity matrix's 12×10×8 box (whole 4-cell chunks) and on a box
// whose rows end in a 3-cell tail. Every owned cell is compared, and every
// ghost the refresh read sets name: E's plus faces and B's minus faces,
// the components transverse to each face. The formula refreshes every
// ghost; the ghosts it alone fills are read by neither.
func TestSim3DStepIsTheFormula(t *testing.T) {
	h := [3]float64{1.0, 1.1, 0.9}
	dt := 0.9 * h[2] / math.Sqrt(3) / units.LightSpeed
	for _, n := range [][3]int{{12, 10, 8}, {5, 6, 11}} {
		var sims [2]*Sim3D
		var exs [2]*halo.Exchanger
		for i := range sims {
			d, ex := singleDomain(t, n)
			sim, err := NewSim3D(d, Sim3DConfig{
				H: h, Dt: dt,
				Drive:     NewPulse(1e-2, 0.057, 0.02, 0.02),
				Source:    [3]int{n[0] / 2, n[1] / 2, n[2] / 2},
				SourceAmp: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			sim.InitRandom(11, 1e-3)
			sims[i], exs[i] = sim, ex
		}
		for s := 0; s < 50; s++ {
			sims[0].Step(exs[0])
			formulaStep(sims[1], exs[1])
		}
		for f, side := range []halo.Sides{halo.Plus, halo.Minus} {
			got, want := sims[0].E, sims[1].E
			if f == 1 {
				got, want = sims[0].B, sims[1].B
			}
			compared := 0
			readElems(got, side, func(i int) {
				compared++
				if v, w := got.Data[i], want.Data[i]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%v box, field %d element %d: Step %v (%x), formula %v (%x)",
						n, f, i, v, math.Float64bits(v), w, math.Float64bits(w))
				}
			})
			if faces := n[0]*n[1] + n[1]*n[2] + n[0]*n[2]; compared != 3*n[0]*n[1]*n[2]+2*faces {
				t.Fatalf("%v box, field %d: compared %d elements, want every owned one and %d face ghosts", n, f, compared, 2*faces)
			}
		}
	}
}

// readElems calls fn with the Data offset of every owned element of f and
// of every face ghost element on side whose component is transverse to
// the face: what a Sim3D update reads of f.
func readElems(f *halo.GridField, side halo.Sides, fn func(i int)) {
	d := f.D
	for ix := 0; ix < f.Ext[0]; ix++ {
		for iy := 0; iy < f.Ext[1]; iy++ {
			for iz := 0; iz < f.Ext[2]; iz++ {
				loc := [3]int{ix, iy, iz}
				comps, out := uint64(0b111), 0
				for a := 0; a < 3; a++ {
					switch {
					case loc[a] == 0 && side == halo.Minus, loc[a] == f.Ext[a]-1 && side == halo.Plus:
						comps, out = transverse(a), out+1
					case loc[a] < d.Ghost || loc[a] >= d.Ghost+d.Own[a]:
						out += 2 // a ghost no update reads
					}
				}
				if out > 1 {
					continue
				}
				base := f.Index(ix, iy, iz)
				for c := 0; c < 3; c++ {
					if comps>>c&1 != 0 {
						fn(base + c)
					}
				}
			}
		}
	}
}

// BenchmarkSim3DStep times one rank-sized 32×64×64 domain (the benchmark's
// field.fdtd block on 2 ranks, h = 1) per cell and half-step: "kernel" is
// Step, "reference" the written-out loops of formulaStep.
func BenchmarkSim3DStep(b *testing.B) {
	n := [3]int{32, 64, 64}
	halfSteps := float64(2 * n[0] * n[1] * n[2])
	for _, run := range []struct {
		name string
		step func(*Sim3D, *halo.Exchanger)
	}{{"kernel", (*Sim3D).Step}, {"reference", formulaStep}} {
		b.Run(run.name, func(b *testing.B) {
			d, ex := singleDomain(b, n)
			sim, err := NewSim3D(d, Sim3DConfig{H: [3]float64{1, 1, 1}, Dt: 0.9 / math.Sqrt(3) / units.LightSpeed})
			if err != nil {
				b.Fatal(err)
			}
			sim.InitRandom(1, 1e-3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run.step(sim, ex)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*halfSteps), "ns/cell-halfstep")
		})
	}
}
