package bench

import (
	"fmt"
	"math"
	"time"

	"mlmd/internal/allegro"
	"mlmd/internal/ferro"
	"mlmd/internal/grid"
	"mlmd/internal/precision"
	"mlmd/internal/tddft"
)

// This file measures the ablations behind the paper's design choices:
// what each optimization actually buys on this substrate.

// AblationResult is a named pair of timings.
type AblationResult struct {
	Name              string
	Baseline, Variant time.Duration
	SpeedupOrOverhead float64
}

// AblationDSAWarmStart quantifies the shadow-dynamics amortization: a
// warm-started DSA Hartree refresh (the previous step's potential as the
// initial guess) reaches the working residual in a few sweeps, while a
// cold start needs several times more (57 sweeps against 12 at n = 16).
// (On a single node the FFT
// solve is still fastest in wall time — the paper keeps FFT for the *local*
// dense solves and uses relaxation-style global updates because they need
// only halo exchanges instead of global transposes.) Besides the timings it
// returns the relaxation sweeps of each path — the deterministic cause of
// the speedup, since a sweep costs the same on both: the cold solver's
// sweeps to reach the last warm refresh's residual, and the sweeps of one
// warm refresh.
func AblationDSAWarmStart(n, refreshes int) (res AblationResult, coldSweeps, warmSweeps int, err error) {
	const refreshSweeps, maxColdSweeps = 12, 200 * 12
	g := grid.NewCubic(n, 0.7)
	rho := make([]float64, g.Len())
	for i := range rho {
		rho[i] = 0.01 * float64(i%17)
	}
	// Warm path: converge once, then refresh against a drifting density
	// with few sweeps; record the residual the warm refresh achieves.
	warmSolver, err := tddft.NewHartreeSolver(g)
	if err != nil {
		return AblationResult{}, 0, 0, err
	}
	warmSolver.StepDSA(rho, 600)
	var target float64
	start := time.Now()
	for r := 0; r < refreshes; r++ {
		for i := range rho {
			rho[i] *= 1.0005
		}
		target = warmSolver.StepDSA(rho, refreshSweeps)
	}
	warm := time.Since(start) / time.Duration(refreshes)
	// Cold path: fresh solver must reach the same residual from zero, one
	// sweep per call (the solver state carries over, so the residuals are
	// those of one long relaxation).
	coldSolver, err := tddft.NewHartreeSolver(g)
	if err != nil {
		return AblationResult{}, 0, 0, err
	}
	start = time.Now()
	for coldSweeps < maxColdSweeps {
		coldSweeps++
		if coldSolver.StepDSA(rho, 1) <= target {
			break
		}
	}
	cold := time.Since(start)
	if coldSweeps == maxColdSweeps {
		return AblationResult{}, 0, 0, fmt.Errorf("bench: cold DSA did not reach the warm residual %g in %d sweeps", target, maxColdSweeps)
	}
	return AblationResult{
		Name:              "Hartree refresh to equal residual: cold DSA vs warm DSA",
		Baseline:          cold,
		Variant:           warm,
		SpeedupOrOverhead: float64(cold) / float64(warm),
	}, coldSweeps, refreshSweeps, nil
}

// AblationScissorPrecision compares nlp_prop in FP64 against the
// BF16-quantized path. In software the quantization is pure overhead (the
// win is a device property); the measured overhead bounds what the hybrid
// mode must recover on hardware. The two are timed in interleaved rounds,
// one application of each per round, each keeping its best (as
// AblationBlockInference does), so a slow phase of a shared host hits both
// alike instead of whichever ran during it.
func AblationScissorPrecision(n, norb, rounds int) (AblationResult, error) {
	g := grid.NewCubic(n, 0.8)
	psi := grid.NewWaveField(g, norb, grid.LayoutSoA)
	psi0 := grid.NewWaveField(g, norb, grid.LayoutSoA)
	for i := range psi.Data {
		psi.Data[i] = complex(0.4/float64(i%7+1), -0.2)
		psi0.Data[i] = complex(0.1, 0.3/float64(i%5+1))
	}
	modes := [2]precision.Mode{precision.ModeFP64, precision.ModeBF16}
	var sc [2]*tddft.Scissor
	var w [2]*grid.WaveField
	var best [2]time.Duration
	for k, mode := range modes {
		sc[k] = &tddft.Scissor{Delta: 1e-3, Mode: mode}
		w[k] = psi.Clone()
		sc[k].Apply(psi0, w[k]) // warm-up
		best[k] = time.Duration(math.MaxInt64)
	}
	for r := 0; r < rounds; r++ {
		for k := range modes {
			start := time.Now()
			sc[k].Apply(psi0, w[k])
			best[k] = min(best[k], time.Since(start))
		}
	}
	return AblationResult{
		Name:              "nlp_prop: FP64 vs BF16-quantized (software emulation)",
		Baseline:          best[0],
		Variant:           best[1],
		SpeedupOrOverhead: float64(best[1]) / float64(best[0]),
	}, nil
}

// AblationBlockInference compares blocked vs unblocked neural-force
// inference time and reports the memory-footprint ratio the blocking buys.
// The two are timed in rounds interleaved: one evaluation of each per round,
// each keeping its best. On a shared host a slow phase then hits both
// alike instead of whichever ran during it, so the ratio holds even where
// the times themselves drift.
func AblationBlockInference(cells, rounds int) (AblationResult, int64, int64, error) {
	sys, _, err := ferro.NewLattice(cells, cells, cells)
	if err != nil {
		return AblationResult{}, 0, 0, err
	}
	spec := allegro.DescriptorSpec{Cutoff: ferro.LatticeConstant * 0.9, NRadial: 5, NSpecies: 3}
	m, err := allegro.NewModel(spec, []int{12}, 1)
	if err != nil {
		return AblationResult{}, 0, 0, err
	}
	blocks := [2]int{0, sys.N / 2}
	var best [2]time.Duration
	for k, block := range blocks {
		m.BlockSize = block
		m.ComputeForces(sys) // warm-up
		best[k] = time.Duration(math.MaxInt64)
	}
	for r := 0; r < rounds; r++ {
		for k, block := range blocks {
			m.BlockSize = block
			start := time.Now()
			m.ComputeForces(sys)
			best[k] = min(best[k], time.Since(start))
		}
	}
	full, blocked := best[0], best[1]
	m.BlockSize = 0
	memFull := m.MemoryEstimate(sys.N)
	m.BlockSize = sys.N / 2
	memBlocked := m.MemoryEstimate(sys.N)
	return AblationResult{
		Name:              "block inference: unblocked vs 2 batches",
		Baseline:          full,
		Variant:           blocked,
		SpeedupOrOverhead: float64(blocked) / float64(full),
	}, memFull, memBlocked, nil
}
