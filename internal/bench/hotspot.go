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

// This file measures what dynamic subdomain-boundary balancing buys on a
// deliberately imbalanced workload (`bench-scaling -hotspot`): a Gaussian
// density hot spot on a sparse background, decomposed over static and
// balanced grids. The figure of merit is the max/mean per-rank
// step-time imbalance — on a bulk-synchronous step, (imbalance−1)/imbalance
// of the machine is idle — plus the owned-atom imbalance (its deterministic
// density view) and the usual ns/step and modeled communication time.

// HotSpotPoint is one (grid shape, balancing mode) measurement.
type HotSpotPoint struct {
	Grid     string
	Ranks    int
	Atoms    int
	Steps    int
	Balanced bool
	// NsPerStep is the best-of-HotSpotTrials wall time per step.
	NsPerStep float64
	// StepImbalance is max/mean over ranks of the per-rank EWMA of local
	// compute seconds per step, measured at the end of the run (1.0 =
	// perfectly balanced).
	StepImbalance float64
	// OwnedImbalance is max/mean over ranks of the final owned-atom counts.
	OwnedImbalance float64
	// Rebalances and MaxCutShift report the controller's activity (zero on
	// static points); MaxCutShift is bounded by the halo width.
	Rebalances  int64
	MaxCutShift float64
	// StepImbalanceVsStatic is set on balanced points: the static point's
	// step-time imbalance divided by this one's (> 1 means balancing
	// reduced the imbalance).
	StepImbalanceVsStatic float64
	CommS                 float64
}

// HotSpotTrials is the best-of count of ShardHotSpot.
const HotSpotTrials = 5

// HotSpotShapes is the default static-vs-balanced sweep of
// `bench-scaling -hotspot`.
var HotSpotShapes = [][3]int{
	{2, 1, 1},
	{4, 1, 1},
	{2, 2, 1},
	{2, 2, 2},
}

// newHotSpotSystem builds the Gaussian hot-spot LJ workload: an fcc
// lattice thinned to a dense blob at fractional (0.3, 0.3, 0.3) over a
// sparse background, warm enough that rebuilds (and therefore rebalances)
// fire during the run. Static uniform grids see >= 30 % owned-atom
// imbalance on it.
func newHotSpotSystem(cells int) (*md.System, error) {
	sys, err := md.NewGaussianHotSpotSystem(cells, 1.7, 50, 0.15, 0.18, [3]float64{0.3, 0.3, 0.3}, 11)
	if err != nil {
		return nil, err
	}
	sys.InitVelocities(1e-3, 1)
	return sys, nil
}

// ShardHotSpot measures every grid shape twice — static and balanced
// (step-time cost signal, rebalancing on every second rebuild) — over the
// same hot-spot configuration, and anchors the balanced points' imbalance
// ratio to their static counterparts.
func ShardHotSpot(shapes [][3]int, cells, steps int) ([]HotSpotPoint, error) {
	if len(shapes) == 0 {
		return nil, fmt.Errorf("bench: no grid shapes given")
	}
	base, err := newHotSpotSystem(cells)
	if err != nil {
		return nil, err
	}
	var points []HotSpotPoint
	for _, g := range shapes {
		staticIdx := -1
		for _, balanced := range []bool{false, true} {
			cfg := shard.Config{
				Grid: g, Cutoff: 2.0, Skin: 0.3,
				Net:     cluster.Slingshot11(),
				NewFF:   shard.LJFactory(0.01, 1.0),
				Balance: balanced,
			}
			pt, err := measureHotSpotConfig(base, cfg, steps)
			if err != nil {
				return nil, err
			}
			pt.Grid = fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2])
			pt.Ranks = g[0] * g[1] * g[2]
			pt.Balanced = balanced
			if balanced && staticIdx >= 0 && pt.StepImbalance > 0 {
				pt.StepImbalanceVsStatic = points[staticIdx].StepImbalance / pt.StepImbalance
			}
			if !balanced {
				staticIdx = len(points)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// measureHotSpotConfig runs one configuration best-of-HotSpotTrials; the
// imbalance and balancing statistics come from the fastest trial.
func measureHotSpotConfig(base *md.System, cfg shard.Config, steps int) (HotSpotPoint, error) {
	pt := HotSpotPoint{Atoms: base.N, Steps: steps}
	best := 0.0
	for trial := 0; trial < HotSpotTrials; trial++ {
		eng, err := shard.NewEngine(cfg, base.Clone())
		if err != nil {
			return HotSpotPoint{}, err
		}
		eng.Run(0, 2, 0, 0) // prime: scatter + first rebuild
		t0 := time.Now()
		eng.Run(steps, 2, 0, 0)
		t := time.Since(t0).Seconds()
		if best == 0 || t < best {
			best = t
			pt.StepImbalance = eng.LoadImbalance()
			pt.OwnedImbalance = eng.OwnedImbalance()
			pt.Rebalances, pt.MaxCutShift = eng.BalanceStats()
			pt.CommS = eng.ModeledCommSeconds()
		}
		eng.Close()
	}
	pt.NsPerStep = best * 1e9 / float64(steps)
	return pt, nil
}

// HotSpotTable formats the measurements with the static/balanced pairing.
func HotSpotTable(points []HotSpotPoint) string {
	var b strings.Builder
	if len(points) > 0 {
		fmt.Fprintf(&b, "Hot-spot load balancing (real engine, %d atoms, %d steps, best of %d, GOMAXPROCS=%d)\n",
			points[0].Atoms, points[0].Steps, HotSpotTrials, runtime.GOMAXPROCS(0))
	}
	fmt.Fprintf(&b, "%6s %9s %14s %12s %12s %8s %10s %12s\n",
		"grid", "mode", "ns/step", "t-imbal", "n-imbal", "rebal", "maxshift", "vs static")
	for _, pt := range points {
		mode := "static"
		ratio := ""
		if pt.Balanced {
			mode = "balanced"
			if pt.StepImbalanceVsStatic > 0 {
				ratio = fmt.Sprintf("%.2fx", pt.StepImbalanceVsStatic)
			}
		}
		fmt.Fprintf(&b, "%6s %9s %14.0f %12.3f %12.3f %8d %10.3f %12s\n",
			pt.Grid, mode, pt.NsPerStep, pt.StepImbalance, pt.OwnedImbalance, pt.Rebalances, pt.MaxCutShift, ratio)
	}
	return b.String()
}
