// Package mlmd's root benchmark suite regenerates every table and figure of
// the paper. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure mapping (see docs/benchmarks.md):
//
//	BenchmarkTableI        — Table I, Maxwell-Ehrenfest T2S (simulated Aurora)
//	BenchmarkTableII       — Table II, XS-NNQMD T2S (simulated Aurora)
//	BenchmarkKinProp*      — Table III, kin_prop implementation ladder (measured)
//	BenchmarkTableIV*      — Table IV, DC-MESH throughput vs size (measured)
//	BenchmarkTableV*       — Table V, hotspot kernels (measured)
//	BenchmarkFig4Weak/Strong — Fig. 4, DC-MESH scaling (simulated Aurora)
//	BenchmarkFig5Weak/Strong — Fig. 5, XS-NNQMD scaling (simulated Aurora)
//	BenchmarkFig3Pipeline  — Fig. 3, end-to-end switching pipeline (measured)
//	BenchmarkLegatoFidelity — Sec. V.A.6 fidelity-scaling ablation (measured)
//	BenchmarkBF16Modes     — Sec. VI.C mixed-precision GEMM ladder (measured)
package mlmd_test

import (
	"testing"

	"mlmd/internal/bench"
	"mlmd/internal/cluster"
	"mlmd/internal/core"
	"mlmd/internal/grid"
	"mlmd/internal/linalg"
	"mlmd/internal/maxwell"
	"mlmd/internal/precision"
	"mlmd/internal/tddft"
	"mlmd/internal/units"
)

// BenchmarkTableI evaluates the full-machine DC-MESH step-time model and
// reports the paper's headline metrics as custom units.
func BenchmarkTableI(b *testing.B) {
	var t2s, flops float64
	for i := 0; i < b.N; i++ {
		t2s, flops = bench.Table1Numbers()
	}
	b.ReportMetric(t2s, "T2S-s/electron")
	b.ReportMetric(flops/1e18, "EFLOP/s")
}

// BenchmarkTableII evaluates the XS-NNQMD machine model.
func BenchmarkTableII(b *testing.B) {
	var t2s float64
	for i := 0; i < b.N; i++ {
		t2s = bench.Table2Numbers()
	}
	b.ReportMetric(t2s*1e15, "T2S-fs/atom-weight")
}

// Table III: the four kin_prop implementations on a shared workload.
func benchKinPropImpl(b *testing.B, impl tddft.Impl) {
	g := grid.New(32, 32, 32, 0.8, 0.8, 0.8)
	kp, err := tddft.NewKinProp(g)
	if err != nil {
		b.Fatal(err)
	}
	layout := grid.LayoutSoA
	if impl == tddft.ImplBaseline {
		layout = grid.LayoutAoS
	}
	const norb = 32
	w := grid.NewWaveField(g, norb, layout)
	for i := range w.Data {
		w.Data[i] = complex(1/float64(i%9+1), 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kp.Propagate(w, 0.02, 0.1, impl)
	}
	b.ReportMetric(float64(kp.Flops(norb))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkKinPropBaseline(b *testing.B)  { benchKinPropImpl(b, tddft.ImplBaseline) }
func BenchmarkKinPropReordered(b *testing.B) { benchKinPropImpl(b, tddft.ImplReordered) }
func BenchmarkKinPropBlocked(b *testing.B)   { benchKinPropImpl(b, tddft.ImplBlocked) }
func BenchmarkKinPropParallel(b *testing.B)  { benchKinPropImpl(b, tddft.ImplParallel) }

// Table IV: whole-QD-step throughput as the orbital count grows.
func benchTableIV(b *testing.B, norb int) {
	g := grid.NewCubic(16, 0.8)
	psi := grid.NewWaveField(g, norb, grid.LayoutSoA)
	psi0 := grid.NewWaveField(g, norb, grid.LayoutSoA)
	for i := range psi.Data {
		psi.Data[i] = complex(0.5/float64(i%7+1), -0.1)
		psi0.Data[i] = complex(0.2, 1/float64(i%5+1))
	}
	kp, err := tddft.NewKinProp(g)
	if err != nil {
		b.Fatal(err)
	}
	sc := &tddft.Scissor{Delta: 1e-3, Mode: precision.ModeFP64}
	flopsPerStep := tddft.ScissorFlops(g.Len(), norb) + kp.Flops(norb)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kp.Propagate(psi, 0.02, 0, tddft.ImplParallel)
		sc.Apply(psi0, psi)
	}
	b.ReportMetric(float64(flopsPerStep)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkTableIVOrb64(b *testing.B)  { benchTableIV(b, 64) }
func BenchmarkTableIVOrb128(b *testing.B) { benchTableIV(b, 128) }
func BenchmarkTableIVOrb256(b *testing.B) { benchTableIV(b, 256) }

// Table V: the individual hotspot kernels at one size.
func BenchmarkTableVCGEMM1(b *testing.B) { benchTableVKernel(b, "cgemm1") }
func BenchmarkTableVCGEMM2(b *testing.B) { benchTableVKernel(b, "cgemm2") }
func BenchmarkTableVNlpProp(b *testing.B) {
	benchTableVKernel(b, "nlp")
}
func BenchmarkTableVKinProp(b *testing.B) { benchTableVKernel(b, "kin") }

func benchTableVKernel(b *testing.B, kernel string) {
	g := grid.NewCubic(16, 0.8)
	const norb = 96
	ngrid := g.Len()
	psi := grid.NewWaveField(g, norb, grid.LayoutSoA)
	psi0 := grid.NewWaveField(g, norb, grid.LayoutSoA)
	for i := range psi.Data {
		psi.Data[i] = complex(0.5/float64(i%7+1), -0.1)
		psi0.Data[i] = complex(0.2, 1/float64(i%5+1))
	}
	o := make([]complex128, norb*norb)
	kp, err := tddft.NewKinProp(g)
	if err != nil {
		b.Fatal(err)
	}
	sc := &tddft.Scissor{Delta: 1e-3, Mode: precision.ModeFP64}
	var flops uint64
	var run func()
	switch kernel {
	case "cgemm1":
		flops = linalg.CGEMMFlops(norb, norb, ngrid)
		run = func() {
			linalg.CGEMMParallel(linalg.ConjTrans, linalg.NoTrans, norb, norb, ngrid,
				1, psi0.Data, norb, psi.Data, norb, 0, o, norb)
		}
	case "cgemm2":
		flops = linalg.CGEMMFlops(ngrid, norb, norb)
		run = func() {
			linalg.CGEMMParallel(linalg.NoTrans, linalg.NoTrans, ngrid, norb, norb,
				complex(-1e-3, 0), psi0.Data, norb, o, norb, 1, psi.Data, norb)
		}
	case "nlp":
		flops = tddft.ScissorFlops(ngrid, norb)
		run = func() { sc.Apply(psi0, psi) }
	case "kin":
		flops = kp.Flops(norb)
		run = func() { kp.Propagate(psi, 0.02, 0, tddft.ImplParallel) }
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// Fig. 4: the machine-scale scaling sweeps (model evaluation).
func BenchmarkFig4Weak(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		series := bench.Fig4a()
		eff = series[1].Eff[len(series[1].Eff)-1]
	}
	b.ReportMetric(eff, "weak-efficiency")
}

func BenchmarkFig4Strong(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		s := bench.Fig4b()
		eff = s.Eff[len(s.Eff)-1]
	}
	b.ReportMetric(eff, "strong-efficiency")
}

func BenchmarkFig5Weak(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		series := bench.Fig5a()
		eff = series[2].Eff[len(series[2].Eff)-1]
	}
	b.ReportMetric(eff, "weak-efficiency")
}

func BenchmarkFig5Strong(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		series := bench.Fig5b()
		eff = series[1].Eff[len(series[1].Eff)-1]
	}
	b.ReportMetric(eff, "strong-efficiency")
}

// BenchmarkFig3Pipeline times Pipeline.Run of the end-to-end experiment
// (small configuration): the hold in the bath, the DC-MESH pulse and the
// XS-NNQMD response on the sharded engine. Building each run's pipeline
// (lattice, texture, DC-MESH ground states) is outside the timer.
func BenchmarkFig3Pipeline(b *testing.B) {
	cfg := core.DefaultPipelineConfig()
	cfg.LatNx, cfg.LatNy, cfg.LatNz = 12, 12, 2
	cfg.DCMESH.Global = grid.NewCubic(12, 0.8)
	cfg.DCMESH.Dx, cfg.DCMESH.Dy, cfg.DCMESH.Dz = 2, 2, 1
	cfg.DCMESH.NQD = 20
	cfg.DCMESH.GroundIters = 150
	cfg.DCMESH.Pulse = maxwell.NewPulse(0.3, units.Hartree(3.0), 0.5, 0.5)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, err := core.NewPipeline(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := p.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLegatoFidelity runs the SAM-vs-plain time-to-failure experiment
// once per iteration (expensive; run with -benchtime 1x).
func BenchmarkLegatoFidelity(b *testing.B) {
	cfg := bench.DefaultLegatoConfig()
	cfg.Sizes = []int{2, 3}
	cfg.NSeeds = 1
	for i := 0; i < b.N; i++ {
		res, err := bench.RunLegato(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SAM[0].FailStep)/float64(res.Plain[0].FailStep), "sam/plain-tfail")
	}
}

// BenchmarkBF16Modes measures the emulated mixed-precision GEMM ladder.
func BenchmarkBF16Modes(b *testing.B) {
	const m, n, k = 96, 96, 96
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%13) - 6
	}
	for i := range bb {
		bb[i] = float32(i%7) - 3
	}
	for _, mode := range []precision.Mode{precision.ModeFP32, precision.ModeBF16, precision.ModeBF16x2, precision.ModeBF16x3} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				precision.GEMMMixed(mode, m, n, k, a, bb, c)
			}
		})
	}
}

// BenchmarkAuroraModel exercises the device model across precisions — the
// projected Table IV precision ladder.
func BenchmarkAuroraModel(b *testing.B) {
	dev := cluster.PVCTile()
	w := bench.PaperDCMESH()
	var tFP32, tBF16, tFP64 float64
	for i := 0; i < b.N; i++ {
		tFP32 = dev.ComputeTime(w.GEMMFlopsPerQD(), cluster.KernelGEMM, precision.ModeFP32)
		tBF16 = dev.ComputeTime(w.GEMMFlopsPerQD(), cluster.KernelGEMM, precision.ModeBF16)
		tFP64 = dev.ComputeTime(w.GEMMFlopsPerQD(), cluster.KernelGEMM, precision.ModeFP64)
	}
	b.ReportMetric(tFP64/tFP32, "fp32-speedup-vs-fp64")
	b.ReportMetric(tFP32/tBF16, "bf16-speedup-vs-fp32")
}
