package bench

import (
	"fmt"
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
	Ranks int
	// Grid is the PxxPyxPz domain-grid shape.
	Grid      string
	Atoms     int
	Steps     int
	NsPerStep float64 // best of ShardTrials
	// Speedup is wall-clock T(1 rank)/T(P ranks) on this host. On a
	// single-core box (the CI container) it isolates pure decomposition
	// overhead and sits just below 1; on a multi-core host it is the
	// actual strong-scaling speedup and can approach P.
	Speedup float64
	CommS   float64 // modeled communication seconds
}

// ShardTrials is the best-of count of ShardGridScaling.
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
// each domain-grid shape (strong scaling, static cuts): the grid-vs-slab
// comparison quantifies what the 3-D decomposition buys — smaller halo
// surface and shorter per-axis rings — net of the extra per-axis exchange
// latency. The shapes must include 1x1x1, the Speedup baseline.
func ShardGridScaling(shapes [][3]int, cells, steps int) ([]ShardPoint, error) {
	base1 := -1
	for i, g := range shapes {
		if g == [3]int{1, 1, 1} {
			base1 = i
			break
		}
	}
	if base1 < 0 {
		// Without the 1-rank point the Speedup column would silently take
		// another shape as its baseline.
		return nil, fmt.Errorf("bench: shard sweep lacks the 1-rank baseline")
	}
	base, err := newShardLJSystem(cells, 3e-4)
	if err != nil {
		return nil, err
	}
	points := make([]ShardPoint, 0, len(shapes))
	for _, g := range shapes {
		pt, err := measureShardConfig(base, shard.Config{
			Grid: g, Cutoff: 2.0, Skin: 0.3,
			Net:   cluster.Slingshot11(),
			NewFF: shard.LJFactory(0.01, 1.0),
		}, steps)
		if err != nil {
			return nil, err
		}
		pt.Ranks = g[0] * g[1] * g[2]
		pt.Grid = fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2])
		points = append(points, pt)
	}
	for i := range points {
		points[i].Speedup = points[base1].NsPerStep / points[i].NsPerStep
	}
	return points, nil
}

// ShardScalingTable formats the measurements.
func ShardScalingTable(points []ShardPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sharded LJ strong scaling (real engine, %d atoms, %d steps, best of %d, GOMAXPROCS=%d)\n",
		points[0].Atoms, points[0].Steps, ShardTrials, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%6s %10s %14s %12s %16s\n", "ranks", "grid", "ns/step", "speedup", "model comm (ms)")
	for _, pt := range points {
		fmt.Fprintf(&b, "%6d %10s %14.0f %12.3f %16.3f\n", pt.Ranks, pt.Grid, pt.NsPerStep, pt.Speedup, pt.CommS*1e3)
	}
	return b.String()
}
