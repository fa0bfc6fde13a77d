// Laserpulse: Maxwell+Ehrenfest on a single domain — propagate a fs pulse
// through the FDTD grid, drive one TDDFT domain with the sampled vector
// potential, and print the dipole response (the observable behind optical
// absorption spectra).
package main

import (
	"fmt"
	"log"

	"mlmd/internal/grid"
	"mlmd/internal/maxwell"
	"mlmd/internal/tddft"
	"mlmd/internal/units"
)

func main() {
	// One domain: harmonic "atom" with two electrons in a 14³ box.
	g := grid.NewCubic(14, 0.8)
	h := tddft.NewHamiltonian(g, grid.Order2)
	tddft.HarmonicPotential(g, 0.06, h.Vloc)
	psi, energies := tddft.GroundState(h, 2, 400, 1)
	fmt.Printf("ground state prepared: E0 = %.4f Ha, E1 = %.4f Ha (gap %.2f eV)\n",
		energies[0], energies[1], units.EV(energies[1]-energies[0]))

	prop, err := tddft.NewPropagator(h, tddft.ImplParallel)
	if err != nil {
		log.Fatal(err)
	}

	// Light: FDTD line along x, pulse tuned near the gap.
	dtQD := 0.04
	lx, _, _ := g.LxLyLz()
	nCells := 64
	dx := lx / float64(nCells)
	dt := 0.9 * dx / units.LightSpeed
	field, err := maxwell.NewField(nCells, dx, dt)
	if err != nil {
		log.Fatal(err)
	}
	pulse := maxwell.NewPulse(0.2, energies[1]-energies[0], 0.3, 0.3)
	cell := field.CellFor(lx / 2)

	rho := make([]float64, g.Len())
	surv := make([]float64, psi.Norb)
	fieldSteps := int(dtQD/field.Dt) + 1
	fmt.Println("\n  t [as]    A(x0)      dipole_x   survival")
	for step := 0; step < 150; step++ {
		field.DriveSteps(pulse, 0, fieldSteps)
		h.Ax = field.Sample(cell)
		prop.Step(psi, dtQD)
		if step%15 == 0 {
			psi.Density(rho, nil)
			dxp, _, _ := tddft.Dipole(g, rho)
			tddft.ProjectOccupations(surv, psi, psi)
			fmt.Printf("  %6.1f  %+9.4f  %+9.5f  %.6f\n",
				units.Attoseconds(float64(step)*dtQD), h.Ax, dxp, surv[0])
		}
	}
	fmt.Printf("\nfinal norm drift: %.2e (unitary propagation)\n", tddft.NormDrift(psi))
}
