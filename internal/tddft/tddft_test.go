package tddft

import (
	"math"
	"math/cmplx"
	"testing"

	"mlmd/internal/grid"
	"mlmd/internal/linalg"
	"mlmd/internal/precision"
)

func TestGroundStateHarmonicOscillator(t *testing.T) {
	// 3-D isotropic harmonic oscillator, ω=0.5: E0 = 3ω/2 = 0.75,
	// E1..E3 = 5ω/2 = 1.25 (threefold degenerate).
	g := grid.NewCubic(16, 0.7)
	h := NewHamiltonian(g, grid.Order2)
	HarmonicPotential(g, 0.25, h.Vloc) // k = ω² = 0.25
	w, energies := GroundState(h, 4, 800, 1)
	if math.Abs(energies[0]-0.75) > 0.05 {
		t.Errorf("E0 = %g, want 0.75", energies[0])
	}
	for s := 1; s < 4; s++ {
		if math.Abs(energies[s]-1.25) > 0.1 {
			t.Errorf("E%d = %g, want 1.25", s, energies[s])
		}
	}
	// Orbitals orthonormal.
	for a := 0; a < 4; a++ {
		for b := 0; b <= a; b++ {
			want := complex(0, 0)
			if a == b {
				want = 1
			}
			if d := cmplx.Abs(w.Overlap(a, b) - want); d > 1e-8 {
				t.Errorf("⟨%d|%d⟩ off by %g", a, b, d)
			}
		}
	}
}

func TestStationaryStateStaysStationary(t *testing.T) {
	// Propagating an eigenstate must not change its density or energy.
	g := grid.NewCubic(12, 0.8)
	h := NewHamiltonian(g, grid.Order2)
	HarmonicPotential(g, 0.25, h.Vloc)
	w, e0 := GroundState(h, 2, 800, 2)
	prop, err := NewPropagator(h, ImplBlocked)
	if err != nil {
		t.Fatal(err)
	}
	rho0 := make([]float64, g.Len())
	w.Density(rho0, nil)
	drift := prop.Run(w, 0.02, 200)
	if drift > 1e-10 {
		t.Errorf("norm drift %g", drift)
	}
	eT := TotalEnergy(h, w, nil)
	e0sum := e0[0] + e0[1]
	if math.Abs(eT-e0sum) > 1e-3*math.Abs(e0sum) {
		t.Errorf("energy drifted: %g -> %g", e0sum, eT)
	}
	rhoT := make([]float64, g.Len())
	w.Density(rhoT, nil)
	for i := range rho0 {
		if math.Abs(rhoT[i]-rho0[i]) > 5e-4 {
			t.Fatalf("density changed at %d: %g vs %g", i, rhoT[i], rho0[i])
		}
	}
}

func TestDipoleKickInducesOscillation(t *testing.T) {
	// A momentum kick e^{ikx} sets the ground-state density oscillating in
	// the harmonic well at the trap frequency (Kohn mode); the dipole must
	// oscillate and change sign.
	g := grid.NewCubic(12, 0.8)
	h := NewHamiltonian(g, grid.Order2)
	HarmonicPotential(g, 0.25, h.Vloc)
	w, _ := GroundState(h, 1, 250, 3)
	k := 0.3
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				x, _, _ := g.Position(ix, iy, iz)
				idx := g.Index(ix, iy, iz)
				w.Set(idx, 0, w.At(idx, 0)*cmplx.Exp(complex(0, k*x)))
			}
		}
	}
	prop, _ := NewPropagator(h, ImplBlocked)
	rho := make([]float64, g.Len())
	sawPos, sawNeg := false, false
	for step := 0; step < 300; step++ {
		prop.Step(w, 0.05)
		w.Density(rho, nil)
		dx, _, _ := Dipole(g, rho)
		if dx > 0.05 {
			sawPos = true
		}
		if dx < -0.05 {
			sawNeg = true
		}
	}
	if !sawPos || !sawNeg {
		t.Errorf("dipole did not oscillate (pos=%v neg=%v)", sawPos, sawNeg)
	}
}

func TestScissorIsPerturbativeAndGEMMified(t *testing.T) {
	g := grid.NewCubic(8, 0.8)
	w := randField(g, 6, grid.LayoutSoA, 4)
	w.GramSchmidt()
	psi0 := w.Clone()
	sc := &Scissor{Delta: complex(0, 1e-3), Mode: precision.ModeFP64}
	before := w.Clone()
	linalg.ResetFlops()
	sc.Apply(psi0, w)
	if linalg.Flops() == 0 {
		t.Error("scissor did not route through GEMM (no FLOPs counted)")
	}
	// Small delta ⇒ small change.
	var maxd float64
	for i := range w.Data {
		if d := cmplx.Abs(w.Data[i] - before.Data[i]); d > maxd {
			maxd = d
		}
	}
	if maxd == 0 {
		t.Error("scissor had no effect")
	}
	if maxd > 0.1 {
		t.Errorf("scissor change %g too large for perturbative delta", maxd)
	}
}

func TestScissorMatchesDirectProjection(t *testing.T) {
	// Ψ −= δ Ψ0 (Ψ0† Ψ) computed naively must equal the GEMM path.
	g := grid.NewCubic(6, 0.9)
	norb := 4
	w := randField(g, norb, grid.LayoutSoA, 5)
	psi0 := randField(g, norb, grid.LayoutSoA, 6)
	delta := complex(2e-3, 1e-3)
	want := w.Clone()
	n := g.Len()
	dv := complex(g.DV(), 0)
	// Naive reference.
	o := make([]complex128, norb*norb)
	for a := 0; a < norb; a++ {
		for b := 0; b < norb; b++ {
			var sum complex128
			for gi := 0; gi < n; gi++ {
				sum += cmplx.Conj(psi0.Data[gi*norb+a]) * w.Data[gi*norb+b]
			}
			o[a*norb+b] = sum * dv
		}
	}
	for gi := 0; gi < n; gi++ {
		for s := 0; s < norb; s++ {
			var corr complex128
			for a := 0; a < norb; a++ {
				corr += psi0.Data[gi*norb+a] * o[a*norb+s]
			}
			want.Data[gi*norb+s] -= delta * corr
		}
	}
	sc := &Scissor{Delta: delta, Mode: precision.ModeFP64}
	sc.Apply(psi0, w)
	for i := range w.Data {
		if d := cmplx.Abs(w.Data[i] - want.Data[i]); d > 1e-10 {
			t.Fatalf("GEMM scissor differs from direct projection by %g at %d", d, i)
		}
	}
}

func TestScissorBF16ModesAccuracyLadder(t *testing.T) {
	g := grid.NewCubic(8, 0.8)
	norb := 8
	mk := func() (*grid.WaveField, *grid.WaveField) {
		w := randField(g, norb, grid.LayoutSoA, 7)
		p0 := randField(g, norb, grid.LayoutSoA, 8)
		return w, p0
	}
	wRef, p0 := mk()
	ref := wRef.Clone()
	(&Scissor{Delta: 1e-2, Mode: precision.ModeFP64}).Apply(p0, ref)
	errFor := func(mode precision.Mode) float64 {
		w := wRef.Clone()
		(&Scissor{Delta: 1e-2, Mode: mode}).Apply(p0, w)
		var num, den float64
		for i := range w.Data {
			d := w.Data[i] - ref.Data[i]
			num += real(d)*real(d) + imag(d)*imag(d)
			den += real(ref.Data[i])*real(ref.Data[i]) + imag(ref.Data[i])*imag(ref.Data[i])
		}
		return math.Sqrt(num / den)
	}
	e1, e2, e3 := errFor(precision.ModeBF16), errFor(precision.ModeBF16x2), errFor(precision.ModeBF16x3)
	t.Logf("scissor errors: BF16=%.3g BF16x2=%.3g BF16x3=%.3g", e1, e2, e3)
	if !(e1 > e2 && e2 > e3) {
		t.Errorf("accuracy ladder violated: %g %g %g", e1, e2, e3)
	}
	// Because the correction is perturbative (~δ), even BF16 keeps the
	// total wave-function error tiny — the paper's key argument.
	if e1 > 1e-3 {
		t.Errorf("BF16 scissor error %g too large", e1)
	}
}

func TestHartreeDSAConvergesToFFT(t *testing.T) {
	g := grid.NewCubic(16, 0.7)
	hs, err := NewHartreeSolver(g)
	if err != nil {
		t.Fatal(err)
	}
	// Smooth Gaussian charge.
	rho := make([]float64, g.Len())
	lx, ly, lz := g.LxLyLz()
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				x, y, z := g.Position(ix, iy, iz)
				dx, dy, dz := x-lx/2, y-ly/2, z-lz/2
				rho[g.Index(ix, iy, iz)] = math.Exp(-(dx*dx + dy*dy + dz*dz))
			}
		}
	}
	want := make([]float64, g.Len())
	hs.SolveFFTStencil(rho, want)
	res := hs.StepDSA(rho, 600)
	if res > 2e-3 {
		t.Errorf("DSA residual %g after 600 iters", res)
	}
	got := hs.Potential()
	// Compare up to an additive constant (both fix gauge differently).
	shift := got[0] - want[0]
	worst := 0.0
	scale := 0.0
	for i := range want {
		if v := math.Abs(want[i]); v > scale {
			scale = v
		}
	}
	for i := range want {
		if d := math.Abs(got[i] - shift - want[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.02*scale {
		t.Errorf("DSA potential deviates from FFT by %g (scale %g)", worst, scale)
	}
}

func TestHartreeDSAWarmStartIsFast(t *testing.T) {
	g := grid.NewCubic(16, 0.7)
	hs, _ := NewHartreeSolver(g)
	rho := make([]float64, g.Len())
	for i := range rho {
		rho[i] = math.Sin(float64(i)) * 0.01
	}
	hs.StepDSA(rho, 400)
	// Slightly perturbed density: warm-started DSA should reach a small
	// residual in few iterations.
	for i := range rho {
		rho[i] *= 1.01
	}
	res := hs.StepDSA(rho, 30)
	if res > 0.05 {
		t.Errorf("warm-start residual %g too large", res)
	}
}

func TestXCPotential(t *testing.T) {
	rho := []float64{0, 1e-12, 0.1, 1.0, -0.5}
	v := make([]float64, len(rho))
	XCPotentialLDA(rho, v)
	if v[0] != 0 || v[4] != 0 {
		t.Error("clamping failed")
	}
	if !(v[3] < v[2] && v[2] < 0) {
		t.Errorf("LDA exchange must be negative and deepening: %v", v)
	}
	g := grid.NewCubic(4, 1)
	rho2 := make([]float64, g.Len())
	for i := range rho2 {
		rho2[i] = 0.3
	}
	if e := XCEnergyLDA(g, rho2); e >= 0 {
		t.Errorf("exchange energy must be negative, got %g", e)
	}
}

func TestExcitedPopulation(t *testing.T) {
	occ0 := []float64{1, 1, 0, 0}
	occ := []float64{0.8, 1, 0.15, 0.05}
	if n := ExcitedPopulation(occ0, occ); math.Abs(n-0.2) > 1e-12 {
		t.Errorf("n_exc = %g, want 0.2", n)
	}
	if n := ExcitedPopulation(occ0, occ0); n != 0 {
		t.Errorf("n_exc of unchanged occupations = %g", n)
	}
}

func TestProjectOccupationsDecaysUnderPerturbation(t *testing.T) {
	g := grid.NewCubic(10, 0.8)
	h := NewHamiltonian(g, grid.Order2)
	HarmonicPotential(g, 0.25, h.Vloc)
	w, _ := GroundState(h, 2, 200, 11)
	psi0 := w.Clone()
	p := make([]float64, w.Norb)
	ProjectOccupations(p, psi0, w)
	for s, v := range p {
		if math.Abs(v-1) > 1e-8 {
			t.Errorf("initial survival of orbital %d = %g", s, v)
		}
	}
	// Strong field kick reduces survival.
	prop, _ := NewPropagator(h, ImplBlocked)
	h.Ax = 40
	prop.Run(w, 0.05, 80)
	ProjectOccupations(p, psi0, w)
	for s, v := range p {
		if v > 0.99999 {
			t.Errorf("orbital %d survival did not decay: %g", s, v)
		}
		if v < 0 || v > 1+1e-9 {
			t.Errorf("survival out of range: %g", v)
		}
	}
}
