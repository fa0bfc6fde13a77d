package tddft

import (
	"math"
	"testing"

	"mlmd/internal/grid"
	"mlmd/internal/par"
	"mlmd/internal/precision"
)

// qdProblem is one domain's QD problem: a trapped ground state with the
// FP64 scissor on, and optionally the Hartree refresh every 3 sub-steps.
func qdProblem(tb testing.TB, n, norb int, impl Impl, hartree bool) (*Propagator, *grid.WaveField) {
	tb.Helper()
	g := grid.NewCubic(n, 0.8)
	h := NewHamiltonian(g, grid.Order2)
	HarmonicPotential(g, 0.04, h.Vloc)
	psi, _ := GroundState(h, norb, 5, 3)
	prop, err := NewPropagator(h, impl)
	if err != nil {
		tb.Fatal(err)
	}
	prop.NL = &Scissor{Delta: complex(0, 1e-6), Mode: precision.ModeFP64}
	prop.Psi0 = psi.Clone()
	if hartree {
		hs, err := NewHartreeSolver(g)
		if err != nil {
			tb.Fatal(err)
		}
		prop.Hartree, prop.HartreeEvery = hs, 3
		prop.VExt = append([]float64(nil), h.Vloc...)
	}
	return prop, psi
}

func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	differ := 0
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			differ++
		}
	}
	if differ != 0 {
		t.Fatalf("%s: %d of %d values differ", what, differ, len(want))
	}
}

// TestPropagatorRunMatchesSteps: one multi-sub-step entry is bitwise the
// loop of single Steps it replaces — Run under a constant vector potential,
// RunDriven under a per-sub-step one — including a Hartree refresh inside
// the window, after which the cached potential phases must be rebuilt.
func TestPropagatorRunMatchesSteps(t *testing.T) {
	const nSub, dt = 7, 0.04
	ax := make([]float64, nSub)
	for q := range ax {
		ax[q] = 0.6 * math.Sin(0.9*float64(q+1))
	}
	for _, impl := range []Impl{ImplBaseline, ImplReordered, ImplParallel} {
		layout := grid.LayoutSoA
		if impl == ImplBaseline {
			layout = grid.LayoutAoS
		}
		for _, driven := range []bool{false, true} {
			stepProp, ref := qdProblem(t, 8, 3, impl, true)
			runProp, _ := qdProblem(t, 8, 3, impl, true)
			if impl == ImplBaseline {
				// The scissor is SoA-only; the baseline rung runs without it.
				stepProp.NL, runProp.NL = nil, nil
			}
			ref = ref.ToLayout(layout)
			got := ref.Clone()

			stepProp.H.Ax, runProp.H.Ax = 0.3, 0.3
			for q := 0; q < nSub; q++ {
				if driven {
					stepProp.H.Ax = ax[q]
				}
				stepProp.Step(ref, dt)
			}
			if driven {
				runProp.RunDriven(got, dt, ax)
			} else {
				runProp.Run(got, dt, nSub)
			}
			if stepProp.step != nSub || runProp.step != nSub {
				t.Fatalf("step counters %d, %d, want %d", stepProp.step, runProp.step, nSub)
			}
			requireSameBits(t, impl.String()+" Ψ", got.Data, ref.Data)
			for i := range stepProp.H.Vloc {
				if math.Float64bits(stepProp.H.Vloc[i]) != math.Float64bits(runProp.H.Vloc[i]) {
					t.Fatalf("%v: refreshed v_loc differs at %d", impl, i)
				}
			}
			if runProp.H.Ax != stepProp.H.Ax {
				t.Fatalf("%v: H.Ax left at %v, want %v", impl, runProp.H.Ax, stepProp.H.Ax)
			}
		}
	}
}

// TestPropagatorWalkersAgreeBitwise: the scalar ImplReordered walk over the
// canonical formula, the kernel-backed ImplBlocked and the pool-parallel
// ImplParallel (at several worker counts) produce the same bits over a
// 5-sub-step run with Peierls phase and scissor on — the independent check
// of the assembly from outside internal/linalg. The 8-orbital problem is the
// qd.dcmesh domain, whose sweeps fit one chunk and run inline; the
// 40-orbital one is past every chunking threshold, so its sweeps and both
// scissor products really are cut up over the pool.
func TestPropagatorWalkersAgreeBitwise(t *testing.T) {
	const nSub, dt = 5, 0.04
	ax := []float64{0.1, -0.4, 0.7, 0.2, -0.9}
	prev := par.Workers()
	defer par.SetWorkers(prev)
	for _, norb := range []int{8, 40} {
		if inline := 16*16*16 <= sweepGrain(norb); inline != (norb == 8) {
			t.Fatalf("norb %d is on the wrong side of the chunking threshold", norb)
		}
		run := func(impl Impl) []complex128 {
			prop, psi := qdProblem(t, 16, norb, impl, false)
			prop.RunDriven(psi, dt, ax)
			return psi.Data
		}
		want := run(ImplReordered)
		requireSameBits(t, "blocked vs reordered", run(ImplBlocked), want)
		for _, workers := range []int{1, 2, 4, 7} {
			par.SetWorkers(workers)
			requireSameBits(t, "parallel vs reordered", run(ImplParallel), want)
		}
	}
}

// TestVPropMatchesPhaseTable: the stateless VProp and the propagator's
// table-driven phase are the same arithmetic, in both layouts.
func TestVPropMatchesPhaseTable(t *testing.T) {
	g := grid.New(6, 4, 10, 0.8, 0.9, 0.7) // 240 points: not a multiple of vpropChunk
	h := NewHamiltonian(g, grid.Order2)
	HarmonicPotential(g, 0.3, h.Vloc)
	table := make([]complex128, g.Len())
	phaseTable(table, h.Vloc, 0.02)
	for _, layout := range []grid.Layout{grid.LayoutSoA, grid.LayoutAoS} {
		want := randField(g, 3, layout, 5)
		got := want.Clone()
		VProp(h, want, 0.02)
		applyPhase(got, table, false)
		requireSameBits(t, layout.String(), got.Data, want.Data)
	}
}

// TestScissorBF16ReusesScratch: the quantized operand copies are kept, so
// the steady-state Apply allocates only what the pool dispatch does.
func TestScissorBF16ReusesScratch(t *testing.T) {
	g := grid.NewCubic(8, 0.8)
	p0 := randField(g, 4, grid.LayoutSoA, 1)
	w := randField(g, 4, grid.LayoutSoA, 2)
	fp64 := &Scissor{Delta: 1e-3, Mode: precision.ModeFP64}
	bf16 := &Scissor{Delta: 1e-3, Mode: precision.ModeBF16x2}
	fp64.Apply(p0, w)
	bf16.Apply(p0, w)
	base := testing.AllocsPerRun(10, func() { fp64.Apply(p0, w) })
	quant := testing.AllocsPerRun(10, func() { bf16.Apply(p0, w) })
	if quant > base {
		t.Errorf("BF16 scissor allocates %v objects per Apply, FP64 %v: operand copies not reused", quant, base)
	}
}

// BenchmarkQDStep is one QD sub-step of one qd.dcmesh domain: a 16³ mesh
// with 8 orbitals, Propagator.Step with the FP64 scissor (v_prop, kin_prop,
// v_prop, two CGEMMs).
func BenchmarkQDStep(b *testing.B) {
	prop, psi := qdProblem(b, 16, 8, ImplParallel, false)
	prop.Step(psi, 0.04)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prop.Step(psi, 0.04)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/8, "us/orbital")
}

// BenchmarkQDRun40 is the same domain advanced the way core.DCMESH does it:
// 40 sub-steps per call sharing one potential-phase table.
func BenchmarkQDRun40(b *testing.B) {
	prop, psi := qdProblem(b, 16, 8, ImplParallel, false)
	ax := make([]float64, 40)
	prop.RunDriven(psi, 0.04, ax)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prop.RunDriven(psi, 0.04, ax)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/40/8, "us/orbital")
}

// BenchmarkGroundStateIter is one imaginary-time iteration of one qd.dcmesh
// domain's ground-state solve: a 16³ mesh with 8 orbitals under the
// harmonic confinement of core.NewDCMESH — H ψ with the Rayleigh sums, the
// residual step and Gram–Schmidt. The b.N iterations run as one solve.
func BenchmarkGroundStateIter(b *testing.B) {
	g := grid.NewCubic(16, 0.8)
	h := NewHamiltonian(g, grid.Order2)
	HarmonicPotential(g, 0.04, h.Vloc)
	b.ResetTimer()
	GroundState(h, 8, b.N, 1)
}
