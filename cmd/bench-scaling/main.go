// Command bench-scaling regenerates the machine-scale results of the paper
// on the simulated Aurora: Tables I–II (time-to-solution vs the state of the
// art) and Figs. 4–5 (weak/strong scaling of DC-MESH and XS-NNQMD), plus the
// Allegro-Legato fidelity-scaling ablation. It also prints three sweeps of
// the real sharded engine (internal/shard) that the gated benchmark does not
// take yet.
//
// Usage:
//
//	bench-scaling [-table1] [-table2] [-fig4a] [-fig4b] [-fig5a] [-fig5b] [-legato]
//	              [-grid] [-hotspot] [-recover] [-shardcells N] [-shardsteps N]
//
// With no flags, Tables I–II and Figs. 4–5 are printed. -legato trains
// models and runs MD (about a minute). -grid is the grid-vs-slab strong
// scaling of the LJ engine (1x1x1 … 2x2x2, best of 7), -hotspot the
// static-vs-balanced sweep on a Gaussian hot spot (best of 5), and -recover
// the detect-to-resume latency of one injected rank failure against the
// checkpoint cadence (3 ranks over Unix sockets).
package main

import (
	"flag"
	"fmt"
	"os"

	"mlmd/internal/bench"
)

func main() {
	t1 := flag.Bool("table1", false, "Table I: Maxwell-Ehrenfest T2S vs SOTA")
	t2 := flag.Bool("table2", false, "Table II: XS-NNQMD T2S vs SOTA")
	f4a := flag.Bool("fig4a", false, "Fig 4a: DC-MESH weak scaling")
	f4b := flag.Bool("fig4b", false, "Fig 4b: DC-MESH strong scaling")
	f5a := flag.Bool("fig5a", false, "Fig 5a: XS-NNQMD weak scaling")
	f5b := flag.Bool("fig5b", false, "Fig 5b: XS-NNQMD strong scaling")
	legato := flag.Bool("legato", false, "Allegro-Legato fidelity-scaling ablation (slow)")
	gridFlag := flag.Bool("grid", false, "real sharded-engine grid-vs-slab strong scaling (1x1x1 … 2x2x2, best of 7)")
	hotspotFlag := flag.Bool("hotspot", false, "Gaussian hot-spot static-vs-balanced load-balancing sweep (best of 5)")
	recoverFlag := flag.Bool("recover", false, "self-healing shrink-and-resume latency vs checkpoint cadence (injects one rank failure per trial)")
	shardCells := flag.Int("shardcells", 11, "fcc cells per axis of the -grid/-hotspot/-recover system (atoms = 4·cells³ before hot-spot thinning; needs cells >= 11 so the 8-rank slab still fits the halo)")
	shardSteps := flag.Int("shardsteps", 100, "MD steps per -grid/-hotspot/-recover trial")
	flag.Parse()
	all := !*t1 && !*t2 && !*f4a && !*f4b && !*f5a && !*f5b && !*legato && !*gridFlag && !*hotspotFlag && !*recoverFlag

	if *t1 || all {
		fmt.Println(bench.Table1())
	}
	if *t2 || all {
		fmt.Println(bench.Table2())
	}
	if *f4a || all {
		fmt.Println(bench.SeriesTable("Fig 4a: DC-MESH weak scaling (simulated Aurora)", bench.Fig4a()))
	}
	if *f4b || all {
		fmt.Println(bench.SeriesTable("Fig 4b: DC-MESH strong scaling, 12.58M electrons (paper eff 0.843 at 4x)",
			[]bench.ScalingSeries{bench.Fig4b()}))
	}
	if *f5a || all {
		fmt.Println(bench.SeriesTable("Fig 5a: XS-NNQMD weak scaling (paper eff 0.957/0.964/0.997)", bench.Fig5a()))
	}
	if *f5b || all {
		fmt.Println(bench.SeriesTable("Fig 5b: XS-NNQMD strong scaling (paper eff 0.44 / 0.773)", bench.Fig5b()))
	}
	if *legato {
		res, err := bench.RunLegato(bench.DefaultLegatoConfig())
		check(err)
		fmt.Println(bench.LegatoTable(res))
	}
	if *gridFlag {
		points, err := bench.ShardGridScaling(bench.GridShapes, *shardCells, *shardSteps)
		check(err)
		fmt.Println(bench.ShardScalingTable(points))
	}
	if *hotspotFlag {
		points, err := bench.ShardHotSpot(bench.HotSpotShapes, *shardCells, *shardSteps)
		check(err)
		fmt.Println(bench.HotSpotTable(points))
	}
	if *recoverFlag {
		points, err := bench.RecoverCost(bench.RecoverGrid, *shardCells, *shardSteps, bench.RecoverCadences)
		check(err)
		fmt.Println(bench.RecoverTable(points))
	}
}

// check exits with err, if there is one.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-scaling:", err)
		os.Exit(1)
	}
}
