// Command topo-switch runs the Fig. 3 science experiment: prepare a polar
// skyrmion superlattice in PbTiO3, hit it with a femtosecond laser pulse
// through DC-MESH, and watch XS-NNQMD evolve (and switch) the topological
// texture.
//
// Usage:
//
//	topo-switch [-lat N] [-sky N] [-amp E0] [-steps N] [-trace] [-xyz file]
//
// -trace prints the topological charge and domain structure every 10
// response steps and after the last (the Fig. 3 time series); -xyz writes
// an extended-XYZ trajectory frame at the same steps, for visualization.
// Either way the run is one core.Pipeline.Run, on the same steps as a plain
// run, and ends with the same report.
package main

import (
	"flag"
	"fmt"
	"os"

	"mlmd/internal/core"
	"mlmd/internal/grid"
	"mlmd/internal/maxwell"
	"mlmd/internal/mlmdio"
	"mlmd/internal/topo"
	"mlmd/internal/units"
)

func main() {
	lat := flag.Int("lat", 24, "lattice cells per axis (xy)")
	sky := flag.Int("sky", 2, "skyrmions per axis in the superlattice")
	amp := flag.Float64("amp", 0.4, "peak laser E field (a.u.)")
	steps := flag.Int("steps", 250, "XS-NNQMD response steps")
	trace := flag.Bool("trace", false, "print charge/domain time series during the response")
	xyzPath := flag.String("xyz", "", "write an XYZ trajectory to this file")
	flag.Parse()

	cfg := core.DefaultPipelineConfig()
	cfg.LatNx, cfg.LatNy, cfg.LatNz = *lat, *lat, 2
	cfg.SkyGrid = *sky
	cfg.SkyRadius = float64(*lat) / float64(4**sky)
	cfg.ResponseSteps = *steps
	cfg.NSat = 0.02
	cfg.DCMESH.Global = grid.NewCubic(12, 0.8)
	cfg.DCMESH.Dx, cfg.DCMESH.Dy, cfg.DCMESH.Dz = 2, 2, 1
	cfg.DCMESH.NQD = 25
	cfg.DCMESH.GroundIters = 300
	cfg.DCMESH.Pulse = maxwell.NewPulse(*amp, units.Hartree(3.0), 0.5, 0.5)
	cfg.PulseMDSteps = 2

	p, err := core.NewPipeline(cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("PbTiO3 %dx%dx%d cells (%d atoms), %dx%d skyrmion superlattice, pulse E0=%g a.u.\n",
		cfg.LatNx, cfg.LatNy, cfg.LatNz, p.Sys.N, *sky, *sky, *amp)

	var xyz *os.File
	if *xyzPath != "" {
		if xyz, err = os.Create(*xyzPath); err != nil {
			fail(err)
		}
	}
	gap := "" // a blank line between a trace and the report
	if *trace || xyz != nil {
		gap = "\n"
		fmt.Println("\n  t [fs]     Q      meanPz    up%    down%   wall%  domains")
		p.OnResponseStep = func(step int) error {
			if step%10 != 0 && step != *steps {
				return nil
			}
			field := p.NN.PolarizationField()
			st := topo.AnalyzeDomains(field, 0.5)
			fmt.Printf("  %6.1f  %+6.2f  %+8.4f  %5.1f  %5.1f  %5.1f  %5d\n",
				units.Femtoseconds(p.NN.Time()), field.Charge(), field.MeanPz(),
				100*st.UpFraction, 100*st.DownFraction, 100*st.WallFraction, st.NumDomains)
			if xyz == nil {
				return nil
			}
			return mlmdio.WriteXYZ(xyz, p.Sys, fmt.Sprintf("t_fs=%.2f Q=%.2f", units.Femtoseconds(p.NN.Time()), field.Charge()))
		}
	}
	res, err := p.Run()
	if err == nil && xyz != nil {
		err = xyz.Close()
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("%stopological charge: before pulse %+.2f, after pulse %+.2f, final %+.2f\n", gap,
		res.ChargeBefore, res.ChargeAfterPulse, res.ChargeFinal)
	fmt.Printf("photoexcited electrons (all domains): %.4f\n", res.TotalExcitation)
	fmt.Printf("mean polarization Pz: %.4f -> %.4f\n", res.MeanPzBefore, res.MeanPzFinal)
	if res.Switched {
		fmt.Println("RESULT: topological texture SWITCHED (Fig. 3 mechanism reproduced)")
	} else {
		fmt.Println("RESULT: texture survived the pulse (increase -amp to switch)")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "topo-switch:", err)
	os.Exit(1)
}
