// The -fdtd and -tddft field demos: the grid field solvers sharded on
// the particle engine's halo spine (internal/shard.GridEngine). The
// demos share the particle pipeline's decomposition flags — -ranks,
// -grid, -procs, -transport — and print a summary that is bitwise
// identical on every decomposition: each line is computed serially on
// rank 0 from the gathered global fields, never from rank-order
// reductions.
package main

import (
	"fmt"
	"io"
	"math"

	"mlmd/internal/maxwell"
	"mlmd/internal/shard"
	"mlmd/internal/shard/halo"
	"mlmd/internal/tddft"
	"mlmd/internal/units"
)

// fieldBlocks summary lines are printed per demo, one per fieldBlock
// steps.
const (
	fieldBlocks = 5
	fieldBlock  = 40
)

// checkFieldDemoFlags rejects particle-stage flags that have no meaning
// on a field demo — silently ignoring them would let a user believe a
// checkpointed or balanced field run exists.
func checkFieldDemoFlags(demo, gridStr string, balance bool, hosts string, ckptEvery int, resumePath string, maxRestarts int) error {
	switch {
	case gridStr == "auto":
		return fmt.Errorf("-grid auto sizes the particle lattice; give -%s an explicit PxxPyxPz decomposition", demo)
	case balance:
		return fmt.Errorf("-balance rebalances the particle lattice stage; the -%s field demo is statically decomposed", demo)
	case ckptEvery != 0:
		return fmt.Errorf("-checkpoint-every applies to the particle lattice stage, not the -%s field demo", demo)
	case resumePath != "":
		return fmt.Errorf("-resume applies to the particle lattice stage, not the -%s field demo", demo)
	case maxRestarts != 0:
		return fmt.Errorf("-max-restarts applies to the particle lattice stage, not the -%s field demo", demo)
	case hosts != "":
		return fmt.Errorf("-hosts applies to the particle lattice stage; run the -%s field demo with -procs instead", demo)
	}
	return nil
}

// fieldDemo is one grid-solver demo: a deterministic workload factory
// plus a reporter that renders the gathered global state.
type fieldDemo struct {
	title string
	n     [3]int
	even  bool
	dt    float64
	new   func(rank int, d halo.Domain) (shard.GridWorkload, error)
	// report prints one summary line for the state after step steps,
	// computed serially from the gathered fields (decomposition-
	// invariant). Collective: every process must call it.
	report func(out io.Writer, eng *shard.GridEngine, step int) error
}

// fdtdDemoConfig is the -fdtd workload: a driven anisotropic Yee box
// with a point antenna off the lattice center, reported by its serially
// integrated field energy.
func fdtdDemoConfig() fieldDemo {
	n := [3]int{16, 12, 10}
	h := [3]float64{1.0, 1.1, 0.9}
	dt := 0.9 * h[2] / math.Sqrt(3) / units.LightSpeed
	dV := h[0] * h[1] * h[2]
	return fieldDemo{
		title: fmt.Sprintf("Maxwell FDTD: %dx%dx%d Yee mesh, driven point antenna", n[0], n[1], n[2]),
		n:     n, dt: dt,
		new: func(rank int, d halo.Domain) (shard.GridWorkload, error) {
			sim, err := maxwell.NewSim3D(d, maxwell.Sim3DConfig{
				H: h, Dt: dt,
				Drive:     maxwell.NewPulse(1e-2, 0.057, 0.02, 0.02),
				Source:    [3]int{7, 5, 4},
				SourceAmp: 1,
			})
			if err != nil {
				return nil, err
			}
			sim.InitRandom(11, 1e-3)
			return sim, nil
		},
		report: func(out io.Writer, eng *shard.GridEngine, step int) error {
			var sq float64
			buf := make([]float64, n[0]*n[1]*n[2]*3)
			for idx := 0; idx < 2; idx++ {
				if err := eng.GatherField(idx, buf); err != nil {
					return err
				}
				for _, v := range buf {
					sq += v * v
				}
			}
			fmt.Fprintf(out, "step %3d: t = %6.2f as, field energy = %.9e Ha\n",
				step, units.Attoseconds(float64(step)*dt), sq*dV/(8*math.Pi))
			return nil
		},
	}
}

// tddftDemoConfig is the -tddft workload: two orbitals under a
// laser-pulse vector potential and a static three-cosine potential,
// reported by their serially integrated norms (unitarity makes the
// drift line the demo's conservation check).
func tddftDemoConfig() fieldDemo {
	n := [3]int{8, 6, 4}
	h := [3]float64{0.9, 1.1, 0.7}
	const norb = 2
	dt := 0.05
	dV := h[0] * h[1] * h[2]
	pulse := maxwell.NewPulse(1e-2, 0.057, 0.01, 0.01)
	vloc := func(gx, gy, gz int) float64 {
		return 0.3*math.Cos(2*math.Pi*float64(gx)/float64(n[0])) +
			0.2*math.Sin(2*math.Pi*float64(gy)/float64(n[1])) -
			0.1*math.Cos(2*math.Pi*float64(gz)/float64(n[2]))
	}
	return fieldDemo{
		title: fmt.Sprintf("TDDFT: %d orbitals on a %dx%dx%d mesh, laser-pulse vector potential", norb, n[0], n[1], n[2]),
		n:     n, even: true, dt: dt,
		new: func(rank int, d halo.Domain) (shard.GridWorkload, error) {
			sp, err := tddft.NewShardProp(d, tddft.ShardPropConfig{
				Norb: norb, H: h, Dt: dt,
				Ax:   pulse.VectorPotential,
				Vloc: vloc,
			})
			if err != nil {
				return nil, err
			}
			sp.InitRandom(42, 1.0)
			return sp, nil
		},
		report: func(out io.Writer, eng *shard.GridEngine, step int) error {
			buf := make([]float64, n[0]*n[1]*n[2]*2*norb)
			if err := eng.GatherField(0, buf); err != nil {
				return err
			}
			var norm [norb]float64
			for g := 0; g < len(buf); g += 2 * norb {
				for s := 0; s < norb; s++ {
					re, im := buf[g+2*s], buf[g+2*s+1]
					norm[s] += (re*re + im*im) * dV
				}
			}
			fmt.Fprintf(out, "step %3d: t = %6.2f as, norms = %.12f %.12f\n",
				step, units.Attoseconds(float64(step)*dt), norm[0], norm[1])
			return nil
		},
	}
}

// runFieldDemo runs the named demo on the resolved decomposition —
// in-process ranks, or one hosted rank of a -procs worker mesh (out is
// io.Discard on every rank but 0, exactly like the particle pipeline).
func runFieldDemo(out io.Writer, demo string, opts shardOpts) {
	cfg := fdtdDemoConfig()
	if demo == "tddft" {
		cfg = tddftDemoConfig()
	}
	g := opts.grid
	if g == ([3]int{}) {
		g = [3]int{1, 1, 1}
	}
	gcfg := shard.GridConfig{Grid: g, N: cfg.n, Ghost: 1, EvenAligned: cfg.even, NewWork: cfg.new}
	if sm := opts.socket; sm != nil {
		ranks := make([]int, g[0]*g[1]*g[2])
		for r := range ranks {
			ranks[r] = r
		}
		comm, local, closeMesh, err := sm.Build(0, ranks, g)
		if err != nil {
			fail(err)
		}
		defer closeMesh()
		gcfg.Comm, gcfg.LocalRank = comm, local
	}
	eng, err := shard.NewGridEngine(gcfg)
	if err != nil {
		fail(err)
	}
	defer eng.Close()
	fmt.Fprintf(out, "-- %s --\n", cfg.title)
	if opts.grid != ([3]int{}) {
		if opts.procs > 0 {
			fmt.Fprintf(out, "(field stage sharded across %d ranks, %dx%dx%d grid, %d processes)\n",
				eng.Ranks(), g[0], g[1], g[2], opts.procs)
		} else {
			fmt.Fprintf(out, "(field stage sharded across %d ranks, %dx%dx%d grid)\n", eng.Ranks(), g[0], g[1], g[2])
		}
	}
	for b := 1; b <= fieldBlocks; b++ {
		if _, err := eng.Run(fieldBlock); err != nil {
			fail(err)
		}
		if err := cfg.report(out, eng, b*fieldBlock); err != nil {
			fail(err)
		}
	}
	fmt.Fprintln(out, "\ndone.")
}
