// Package bench regenerates every table and figure of the paper's
// evaluation (Sec. VI–VII) on this repository's substrates. Each function
// returns a perf.Table (or series) that cmd/bench-kernels, cmd/bench-scaling
// and the root bench_test.go print.
//
// Two kinds of numbers appear:
//
//   - measured: kernels actually executed on the host CPU (Table III ladder,
//     Table IV/V kernel throughputs). The host is a 2-socket CPU, not a PVC
//     tile, so absolute FLOP/s differ from the paper; the *shape* (speedup
//     ordering, GEMM ≫ stencil efficiency, growth with problem size) is the
//     reproduction target.
//   - modeled: full-machine projections on the simulated Aurora
//     (internal/cluster), used for Tables I–II and Figs. 4–5 where the paper
//     used 60,000 GPUs. The workload model is calibrated only by public
//     hardware specs (peak FLOP/s, link latency/bandwidth) plus the paper's
//     own sustained-fraction measurements; scaling efficiencies emerge from
//     the model rather than being transcribed.
package bench

import (
	"fmt"
	"math"
	"time"

	"mlmd/internal/cluster"
	"mlmd/internal/grid"
	"mlmd/internal/linalg"
	"mlmd/internal/perf"
	"mlmd/internal/precision"
	"mlmd/internal/tddft"
)

// PaperDCMESH returns the paper-scale DC-MESH workload: 1,024 orbitals per
// padded domain on a ~110³ domain mesh, 1,000 QD steps per MD step, FP32
// kernels — the configuration of the 15.36M-electron Aurora run.
func PaperDCMESH() cluster.DCMESHWorkload {
	return cluster.DCMESHWorkload{
		Norb: 1024, Grid: 110, NQD: 1000,
		GEMMMode:    precision.ModeFP32,
		StencilMode: precision.ModeFP32,
	}
}

// Table1 reproduces Table I: state-of-the-art Maxwell–Ehrenfest T2S
// comparison. Literature rows are the published numbers the paper compares
// against; the "this work" row is the simulated-Aurora projection of our
// DC-MESH workload.
func Table1() *perf.Table {
	t := &perf.Table{
		Title:   "Table I: SOTA Maxwell-Ehrenfest simulations (T2S = sec/QD-step/electron)",
		Headers: []string{"Work", "System", "Machine", "Electrons", "T2S [s]", "PFLOP/s"},
	}
	t.Add("Qb@ll (2016)", "Aluminum", "BlueGene/Q", 59400, 8.96e-4, 8.75)
	t.Add("PWDFT (2020)", "Silicon", "Summit", 3072, 8.49e-4, 0.12)
	t.Add("SALMON (2022)", "Silica", "Fugaku", 71040, 1.69e-5, 2.69)
	m := cluster.Aurora()
	w := PaperDCMESH()
	p := m.MaxRanks()
	step := w.StepTime(m, p)
	electrons := w.Electrons(p)
	t2s := perf.T2SElectron(step/float64(w.NQD), electrons)
	// Machine FLOP/s: per-rank flops per MD step × ranks / wall time.
	flops := w.TotalFlopsPerMDStep() * float64(p) / step
	t.Add("This work (modeled)", "PbTiO3", "Aurora(sim)", electrons, t2s, flops/1e15)
	return t
}

// Table1Numbers returns the modeled headline numbers for assertions:
// T2S [s/electron/QD-step] and machine FLOP/s.
func Table1Numbers() (t2s, flops float64) {
	m := cluster.Aurora()
	w := PaperDCMESH()
	p := m.MaxRanks()
	step := w.StepTime(m, p)
	t2s = perf.T2SElectron(step/float64(w.NQD), w.Electrons(p))
	flops = w.TotalFlopsPerMDStep() * float64(p) / step
	return
}

// Table2 reproduces Table II: XS-NNQMD T2S comparison.
func Table2() *perf.Table {
	t := &perf.Table{
		Title:   "Table II: SOTA XS-NNQMD simulations (T2S = sec/MD-step/atom/weight)",
		Headers: []string{"Work", "Machine", "Atoms", "Weights", "T2S [s]"},
	}
	t.Add("Linker et al. (2022)", "Theta", int64(1007271936000), 440, 7.091e-12)
	m := cluster.Aurora()
	w := cluster.DefaultNNQMD(10240000)
	p := m.MaxRanks()
	step := w.StepTime(m, p)
	atoms := w.TotalAtoms(p)
	t2s := perf.T2SAtomWeight(step, atoms, int64(w.Weights))
	t.Add("This work (modeled)", "Aurora(sim)", atoms, w.Weights, t2s)
	return t
}

// Table2Numbers returns the modeled XS-NNQMD T2S for assertions.
func Table2Numbers() float64 {
	m := cluster.Aurora()
	w := cluster.DefaultNNQMD(10240000)
	p := m.MaxRanks()
	return perf.T2SAtomWeight(w.StepTime(m, p), w.TotalAtoms(p), int64(w.Weights))
}

// KinPropLadderResult is one row of the Table III reproduction.
type KinPropLadderResult struct {
	Impl    tddft.Impl
	Runtime time.Duration
	Speedup float64
}

// Table3Measured runs the kin_prop implementation ladder on the host:
// norb orbitals on an n³ mesh for steps QD steps per implementation
// (the paper uses 64 orbitals on 70×70×72 for 1,000 steps; pass smaller
// values for quick runs). The baseline row is the reference for speedups.
// The rungs are timed in interleaved rounds and each keeps its best round,
// as in Table5Measured: a slow phase of a shared host then hits every rung
// alike instead of whichever ran during it.
func Table3Measured(n, norb, steps int) ([]KinPropLadderResult, error) {
	g := grid.NewCubic(n, 0.8)
	kp, err := tddft.NewKinProp(g)
	if err != nil {
		return nil, err
	}
	impls := []tddft.Impl{tddft.ImplBaseline, tddft.ImplReordered, tddft.ImplBlocked, tddft.ImplParallel}
	fields := make([]*grid.WaveField, len(impls))
	best := make([]time.Duration, len(impls))
	for k, impl := range impls {
		layout := grid.LayoutSoA
		if impl == tddft.ImplBaseline {
			layout = grid.LayoutAoS
		}
		w := grid.NewWaveField(g, norb, layout)
		for i := range w.Data {
			w.Data[i] = complex(1/float64(i%7+1), 0.1)
		}
		kp.Propagate(w, 0.02, 0.1, impl) // warm-up
		fields[k] = w
		best[k] = math.MaxInt64
	}
	for rep := 0; rep < 5; rep++ {
		for k, impl := range impls {
			start := time.Now()
			for s := 0; s < steps; s++ {
				kp.Propagate(fields[k], 0.02, 0.1, impl)
			}
			best[k] = min(best[k], time.Since(start))
		}
	}
	out := make([]KinPropLadderResult, len(impls))
	for k, impl := range impls {
		out[k] = KinPropLadderResult{Impl: impl, Runtime: best[k], Speedup: float64(best[0]) / float64(best[k])}
	}
	return out, nil
}

// Table3 renders the measured ladder next to the paper's reference numbers.
func Table3(n, norb, steps int) (*perf.Table, error) {
	res, err := Table3Measured(n, norb, steps)
	if err != nil {
		return nil, err
	}
	paper := map[tddft.Impl]float64{
		tddft.ImplBaseline:  1,
		tddft.ImplReordered: 3.67,
		tddft.ImplBlocked:   9.22,
		tddft.ImplParallel:  338,
	}
	t := &perf.Table{
		Title: fmt.Sprintf("Table III: kin_prop ladder (%d orbitals on %d^3 mesh, %d QD steps; paper: 64 orb on 70x70x72, CPU+A100)",
			norb, n, steps),
		Headers: []string{"Implementation", "Runtime", "Speedup (measured)", "Speedup (paper)"},
	}
	for _, r := range res {
		t.Add(r.Impl.String(), r.Runtime.Round(time.Millisecond).String(), r.Speedup, paper[r.Impl])
	}
	return t, nil
}

// KernelThroughput holds one measured kernel rate.
type KernelThroughput struct {
	Name    string
	GFLOPS  float64
	Seconds float64
}

// Table5Measured measures the hotspot kernels of the 1,024-orbital problem
// (scaled to norb orbitals on an n³ mesh): the two CGEMMs of nlp_prop, the
// assembled nlp_prop, and kin_prop. The kernels are timed in interleaved
// rounds and each keeps its best round: on a shared host a slow phase then
// hits every kernel alike instead of whichever ran during it, so the ratios
// between the rates hold even where the rates themselves drift.
func Table5Measured(n, norb int) ([]KernelThroughput, error) {
	g := grid.NewCubic(n, 0.8)
	ngrid := g.Len()
	psi := grid.NewWaveField(g, norb, grid.LayoutSoA)
	psi0 := grid.NewWaveField(g, norb, grid.LayoutSoA)
	for i := range psi.Data {
		psi.Data[i] = complex(1/float64(i%5+1), 0.2)
		psi0.Data[i] = complex(0.3, -1/float64(i%3+1))
	}
	o := make([]complex128, norb*norb)
	sc := &tddft.Scissor{Delta: 1e-3, Mode: precision.ModeFP64}
	kp, err := tddft.NewKinProp(g)
	if err != nil {
		return nil, err
	}
	kernels := []struct {
		name  string
		flops uint64
		run   func()
	}{
		// CGEMM (1): O = Ψ(0)† Ψ(t): norb×norb×ngrid.
		{"CGEMM(1) overlap", linalg.CGEMMFlops(norb, norb, ngrid), func() {
			linalg.CGEMMParallel(linalg.ConjTrans, linalg.NoTrans, norb, norb, ngrid,
				1, psi0.Data, norb, psi.Data, norb, 0, o, norb)
		}},
		// CGEMM (2): Ψ −= δ Ψ0 O: ngrid×norb×norb.
		{"CGEMM(2) update", linalg.CGEMMFlops(ngrid, norb, norb), func() {
			linalg.CGEMMParallel(linalg.NoTrans, linalg.NoTrans, ngrid, norb, norb,
				complex(-1e-3, 0), psi0.Data, norb, o, norb, 1, psi.Data, norb)
		}},
		// nlp_prop: both together through the Scissor path.
		{"nlp_prop()", tddft.ScissorFlops(ngrid, norb), func() { sc.Apply(psi0, psi) }},
		{"kin_prop()", kp.Flops(norb), func() { kp.Propagate(psi, 0.02, 0, tddft.ImplParallel) }},
	}
	best := make([]float64, len(kernels))
	for k, kn := range kernels {
		kn.run() // warm-up
		best[k] = math.Inf(1)
	}
	// Best-of-7: on shared/noisy hosts the minimum is the only robust
	// estimator of kernel speed (anything else folds in steal time).
	for rep := 0; rep < 7; rep++ {
		for k, kn := range kernels {
			start := time.Now()
			kn.run()
			best[k] = math.Min(best[k], time.Since(start).Seconds())
		}
	}
	out := make([]KernelThroughput, len(kernels))
	for k, kn := range kernels {
		out[k] = KernelThroughput{Name: kn.name, GFLOPS: float64(kn.flops) / best[k] / 1e9, Seconds: best[k]}
	}
	return out, nil
}

// Table5 renders measured kernel throughputs with the paper's reference
// fractions.
func Table5(n, norb int) (*perf.Table, error) {
	res, err := Table5Measured(n, norb)
	if err != nil {
		return nil, err
	}
	peak := res[0].GFLOPS // normalize to the fastest kernel ≈ GEMM peak
	for _, r := range res {
		if r.GFLOPS > peak {
			peak = r.GFLOPS
		}
	}
	paperPct := map[string]float64{
		"CGEMM(1) overlap": 81.39, "CGEMM(2) update": 94.17,
		"nlp_prop()": 69.65, "kin_prop()": 15.26,
	}
	t := &perf.Table{
		Title:   fmt.Sprintf("Table V: hotspot kernels (%d orbitals on %d^3 mesh; %% of best kernel)", norb, n),
		Headers: []string{"Kernel", "GFLOP/s (host)", "% of best (host)", "% of peak (paper, PVC)"},
	}
	for _, r := range res {
		t.Add(r.Name, r.GFLOPS, 100*r.GFLOPS/peak, paperPct[r.Name])
	}
	return t, nil
}

// Table4 reproduces Table IV: DC-MESH throughput vs problem size and
// precision. The size ladder is measured on the host (FP64 kernels); the
// precision ladder is projected with the PVC device model, since a CPU host
// has neither dual-rate FP32 pipes nor BF16 systolic arrays.
func Table4(meshN int, orbSizes []int) (*perf.Table, error) {
	t := &perf.Table{
		Title:   fmt.Sprintf("Table IV: DC-MESH throughput vs size and precision (host mesh %d^3)", meshN),
		Headers: []string{"KS orbitals", "Mode", "GFLOP/s (host, FP64 kernels)", "TFLOP/s (PVC model)", "% of FP64 peak (model)"},
	}
	dev := cluster.PVCTile()
	for _, norb := range orbSizes {
		res, err := Table5Measured(meshN, norb)
		if err != nil {
			return nil, err
		}
		// Whole-domain throughput: total flops / total time.
		var fl, sec float64
		for _, r := range res[2:] { // nlp_prop + kin_prop = the QD step
			fl += r.GFLOPS * r.Seconds * 1e9
			sec += r.Seconds
		}
		host := fl / sec / 1e9
		w := cluster.DCMESHWorkload{Norb: norb, Grid: meshN, NQD: 1,
			GEMMMode: precision.ModeFP32, StencilMode: precision.ModeFP32}
		model := modelDomainThroughput(dev, w, precision.ModeFP32)
		t.Add(norb, "FP32", host, model/1e12, 100*model/dev.PeakFP64)
	}
	// Precision ladder at the largest size.
	norb := orbSizes[len(orbSizes)-1]
	w := cluster.DCMESHWorkload{Norb: norb, Grid: meshN, NQD: 1}
	for _, mode := range []precision.Mode{precision.ModeFP32, precision.ModeBF16, precision.ModeFP64} {
		label := mode.String()
		if mode == precision.ModeBF16 {
			label = "FP32/BF16"
		}
		model := modelDomainThroughput(dev, w, mode)
		t.Add(norb, label, "-", model/1e12, 100*model/dev.PeakFP64)
	}
	return t, nil
}

// modelDomainThroughput returns the device-model FLOP/s of one QD step
// (GEMM + stencil mix) under the given mode.
func modelDomainThroughput(dev *cluster.Device, w cluster.DCMESHWorkload, mode precision.Mode) float64 {
	stencilMode := mode
	if mode == precision.ModeBF16 {
		stencilMode = precision.ModeFP32 // hybrid: BF16 GEMM, FP32 stencil
	}
	gemmT := w.GEMMFlopsPerQD() / dev.Throughput(cluster.KernelGEMM, mode)
	stenT := w.StencilFlopsPerQD() / dev.Throughput(cluster.KernelStencil, stencilMode)
	return (w.GEMMFlopsPerQD() + w.StencilFlopsPerQD()) / (gemmT + stenT)
}

// ScalingSeries is one curve of Figs. 4–5.
type ScalingSeries struct {
	Label string
	Ranks []int
	Times []float64
	Eff   []float64
}

// Fig4a returns the DC-MESH weak-scaling curves (32 and 128 electrons per
// rank, i.e. 256- and 1,024-orbital padded domains).
func Fig4a() []ScalingSeries {
	m := cluster.Aurora()
	ranks := []int{6144, 12288, 24576, 49152, 98304, 120000}
	var out []ScalingSeries
	for _, cfg := range []struct {
		label string
		norb  int
		grid  int
	}{{"32 electrons/rank", 256, 70}, {"128 electrons/rank", 1024, 110}} {
		w := cluster.DCMESHWorkload{Norb: cfg.norb, Grid: cfg.grid, NQD: 1000,
			GEMMMode: precision.ModeFP32, StencilMode: precision.ModeFP32}
		times, eff := cluster.WeakScaling(func(p int) float64 { return w.StepTime(m, p) }, ranks)
		out = append(out, ScalingSeries{Label: cfg.label, Ranks: ranks, Times: times, Eff: eff})
	}
	return out
}

// Fig4b returns the DC-MESH strong-scaling curve for 12.58M electrons.
func Fig4b() ScalingSeries {
	m := cluster.Aurora()
	ranks := []int{24576, 49152, 98304}
	const domains = 98304
	step := func(p int) float64 {
		w := PaperDCMESH()
		w.DomainsPerRank = domains / p
		return w.StepTime(m, p)
	}
	times, eff := cluster.StrongScaling(step, ranks)
	return ScalingSeries{Label: "12.58M electrons", Ranks: ranks, Times: times, Eff: eff}
}

// Fig5a returns XS-NNQMD weak scaling at the paper's three granularities.
func Fig5a() []ScalingSeries {
	m := cluster.Aurora()
	ranks := []int{1536, 6144, 24576, 73800, 120000}
	var out []ScalingSeries
	for _, apr := range []int{160000, 640000, 10240000} {
		w := cluster.DefaultNNQMD(apr)
		times, eff := cluster.WeakScaling(func(p int) float64 { return w.StepTime(m, p) }, ranks)
		out = append(out, ScalingSeries{
			Label: fmt.Sprintf("%d atoms/rank", apr), Ranks: ranks, Times: times, Eff: eff,
		})
	}
	return out
}

// Fig5b returns XS-NNQMD strong scaling at the paper's two problem sizes.
func Fig5b() []ScalingSeries {
	m := cluster.Aurora()
	ranks := []int{8200, 24600, 73800}
	var out []ScalingSeries
	for _, total := range []int64{221400000, 984000000} {
		step := func(p int) float64 {
			w := cluster.DefaultNNQMD(int(total / int64(p)))
			return w.StepTime(m, p)
		}
		times, eff := cluster.StrongScaling(step, ranks)
		out = append(out, ScalingSeries{
			Label: fmt.Sprintf("%d atoms", total), Ranks: ranks, Times: times, Eff: eff,
		})
	}
	return out
}

// SeriesTable renders scaling series as a table.
func SeriesTable(title string, series []ScalingSeries) *perf.Table {
	t := &perf.Table{Title: title, Headers: []string{"Series", "Ranks", "Time/step [s]", "Efficiency"}}
	for _, s := range series {
		for i := range s.Ranks {
			t.Add(s.Label, s.Ranks[i], s.Times[i], s.Eff[i])
		}
	}
	return t
}
