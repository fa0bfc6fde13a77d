package bench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mlmd/internal/cluster"
	"mlmd/internal/md"
	"mlmd/internal/shard"
)

// This file measures the *real* sharded MD engine (internal/shard) — wall
// clock of P in-process ranks exchanging actual atoms over cluster.Comm —
// complementing the analytic machine-scale model in internal/cluster. On a
// host with fewer cores than ranks the strong-scaling wall time stays
// roughly flat (the ranks time-share the cores) and the interesting outputs
// are the decomposition overhead versus 1 rank and the modeled
// communication seconds from the communicator's virtual clock.

// ShardPoint is one decomposition's measurement.
type ShardPoint struct {
	Ranks int `json:"ranks"`
	// Grid is the PxxPyxPz domain-grid shape ("" on legacy slab sweeps,
	// where the shape is implicitly Ranks x1x1).
	Grid      string  `json:"grid,omitempty"`
	Atoms     int     `json:"atoms"`
	Steps     int     `json:"steps"`
	NsPerStep float64 `json:"ns_per_step"` // best of Trials
	// Speedup is wall-clock T(1 rank)/T(P ranks) on this host. On a
	// single-core box (the CI container) it isolates pure decomposition
	// overhead and sits just below 1; on a multi-core host it is the
	// actual strong-scaling speedup and can approach P.
	Speedup float64 `json:"speedup_vs_1rank"`
	CommS   float64 `json:"modeled_comm_seconds"`
}

// ShardScalingDoc is the committable JSON document (BENCH_PR2.json).
type ShardScalingDoc struct {
	Go         string       `json:"go"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    string       `json:"mlmd_workers,omitempty"`
	Benchmark  string       `json:"benchmark"`
	Points     []ShardPoint `json:"points"`
}

// ShardTrials is the best-of count of ShardStrongScaling.
const ShardTrials = 7

// newShardLJSystem builds the fcc LJ benchmark system (the shared
// md.NewFCCSystem fixture: spacing 1.7, mass 50 — identical geometry to
// the internal/shard correctness tests).
func newShardLJSystem(cells int, kT float64) (*md.System, error) {
	sys, err := md.NewFCCSystem(cells, 1.7, 50)
	if err != nil {
		return nil, err
	}
	sys.InitVelocities(kT, 1)
	return sys, nil
}

// measureShardConfig measures one decomposition (best-of-ShardTrials wall
// time over the same initial configuration).
func measureShardConfig(base *md.System, cfg shard.Config, steps int) (ShardPoint, error) {
	best := 0.0
	comm := 0.0
	for trial := 0; trial < ShardTrials; trial++ {
		eng, err := shard.NewEngine(cfg, base.Clone())
		if err != nil {
			return ShardPoint{}, err
		}
		eng.Run(0, 2, 0, 0) // prime: scatter is done, force the first rebuild
		t0 := time.Now()
		eng.Run(steps, 2, 0, 0)
		dt := time.Since(t0)
		if best == 0 || dt.Seconds() < best {
			best = dt.Seconds()
			comm = eng.ModeledCommSeconds()
		}
		eng.Close()
	}
	return ShardPoint{
		Atoms: base.N, Steps: steps,
		NsPerStep: best * 1e9 / float64(steps),
		CommS:     comm,
	}, nil
}

// anchorSpeedup fills Speedup = T(1 rank)/T(P) against the sweep's 1-rank
// point; a sweep without a 1-rank baseline is a caller error rather than a
// silently relabeled baseline (the JSON field is named speedup_vs_1rank).
func anchorSpeedup(points []ShardPoint) error {
	base1 := -1
	for i, pt := range points {
		if pt.Ranks == 1 {
			base1 = i
			break
		}
	}
	if base1 < 0 {
		return fmt.Errorf("bench: shard sweep lacks the 1-rank baseline")
	}
	for i := range points {
		points[i].Speedup = points[base1].NsPerStep / points[i].NsPerStep
	}
	return nil
}

// ShardStrongScaling runs the sharded LJ engine at each slab rank count
// over the same initial configuration (fixed total problem size — strong
// scaling), best-of-ShardTrials wall times. balance enables dynamic
// boundary balancing (the uniform fcc workload barely moves the cuts; see
// ShardHotSpot for the sweep where balancing matters).
func ShardStrongScaling(rankCounts []int, cells, steps int, balance bool) ([]ShardPoint, error) {
	if len(rankCounts) == 0 {
		return nil, fmt.Errorf("bench: no rank counts given")
	}
	base, err := newShardLJSystem(cells, 3e-4)
	if err != nil {
		return nil, err
	}
	points := make([]ShardPoint, 0, len(rankCounts))
	for _, p := range rankCounts {
		pt, err := measureShardConfig(base, shard.Config{
			Grid: [3]int{p, 1, 1}, Cutoff: 2.0, Skin: 0.3,
			Net:     cluster.Slingshot11(),
			NewFF:   shard.LJFactory(0.01, 1.0),
			Balance: balance,
		}, steps)
		if err != nil {
			return nil, err
		}
		pt.Ranks = p
		points = append(points, pt)
	}
	if err := anchorSpeedup(points); err != nil {
		return nil, err
	}
	return points, nil
}

// GridShapes is the default grid-vs-slab sweep of `bench-scaling -grid`:
// for each rank count 2/4/8 the slab (Px1x1) against the most compact 3-D
// grid that fits the benchmark box, anchored by the 1x1x1 baseline.
var GridShapes = [][3]int{
	{1, 1, 1},
	{2, 1, 1},
	{4, 1, 1},
	{2, 2, 1},
	{8, 1, 1},
	{2, 2, 2},
}

// ShardGridScaling measures the same fixed-size LJ problem decomposed over
// each domain-grid shape (BENCH_PR3.json / `make bench3`): the grid-vs-slab
// comparison quantifies what the 3-D decomposition buys — smaller halo
// surface and shorter per-axis rings — net of the extra per-axis exchange
// latency. balance enables dynamic boundary balancing.
func ShardGridScaling(shapes [][3]int, cells, steps int, balance bool) ([]ShardPoint, error) {
	if len(shapes) == 0 {
		return nil, fmt.Errorf("bench: no grid shapes given")
	}
	base, err := newShardLJSystem(cells, 3e-4)
	if err != nil {
		return nil, err
	}
	points := make([]ShardPoint, 0, len(shapes))
	for _, g := range shapes {
		pt, err := measureShardConfig(base, shard.Config{
			Grid: g, Cutoff: 2.0, Skin: 0.3,
			Net:     cluster.Slingshot11(),
			NewFF:   shard.LJFactory(0.01, 1.0),
			Balance: balance,
		}, steps)
		if err != nil {
			return nil, err
		}
		pt.Ranks = g[0] * g[1] * g[2]
		pt.Grid = fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2])
		points = append(points, pt)
	}
	if err := anchorSpeedup(points); err != nil {
		return nil, err
	}
	return points, nil
}

// ShardScalingDocument wraps points with the environment header.
func ShardScalingDocument(points []ShardPoint) ShardScalingDoc {
	return shardDocument("shard strong scaling, fcc LJ, best-of-7 wall clock", points)
}

// ShardGridDocument is the committable BENCH_PR3.json document.
func ShardGridDocument(points []ShardPoint) ShardScalingDoc {
	return shardDocument("shard 3-D grid vs slab strong scaling, fcc LJ, best-of-7 wall clock", points)
}

func shardDocument(benchmark string, points []ShardPoint) ShardScalingDoc {
	return ShardScalingDoc{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    os.Getenv("MLMD_WORKERS"),
		Benchmark:  benchmark,
		Points:     points,
	}
}

// ShardScalingTable formats the measurements.
func ShardScalingTable(points []ShardPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded LJ strong scaling (real engine, %d atoms, %d steps, best of %d, GOMAXPROCS=%d)\n",
		points[0].Atoms, points[0].Steps, ShardTrials, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%6s %10s %14s %12s %16s\n", "ranks", "grid", "ns/step", "speedup", "model comm (ms)")
	for _, pt := range points {
		grid := pt.Grid
		if grid == "" {
			grid = fmt.Sprintf("%dx1x1", pt.Ranks)
		}
		fmt.Fprintf(&b, "%6d %10s %14.0f %12.3f %16.3f\n", pt.Ranks, grid, pt.NsPerStep, pt.Speedup, pt.CommS*1e3)
	}
	return b.String()
}
