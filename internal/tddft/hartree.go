package tddft

import (
	"fmt"
	"math"

	"mlmd/internal/fft"
	"mlmd/internal/grid"
)

// HartreeSolver computes the mean-field electrostatic (Hartree) potential
// v_H from the electron density. Two backends mirror the paper's
// "globally sparse yet locally dense" design (Sec. V.A.2):
//
//   - the FFT backend is the domain-local dense solver;
//   - DSA (dynamical simulated annealing, Car–Parrinello-style damped
//     second-order dynamics, ref [42]) iteratively refines v_H from its
//     previous value, which is how the QD loop amortizes the solve across
//     steps without a fresh global solve.
type HartreeSolver struct {
	G    grid.Grid
	plan *fft.Plan3
	// DSA state.
	v, vPrev []float64
	resid    []float64
	// Gamma is the DSA damping coefficient in (0,1]; Step size is chosen
	// from the stencil spectral radius.
	Gamma float64
}

// NewHartreeSolver builds a solver; grid dims must be powers of two for the
// FFT backend.
func NewHartreeSolver(g grid.Grid) (*HartreeSolver, error) {
	plan, err := fft.NewPlan3(g.Nx, g.Ny, g.Nz)
	if err != nil {
		return nil, fmt.Errorf("tddft: hartree: %w", err)
	}
	return &HartreeSolver{
		G:     g,
		plan:  plan,
		v:     make([]float64, g.Len()),
		vPrev: make([]float64, g.Len()),
		resid: make([]float64, g.Len()),
		Gamma: 0.3,
	}, nil
}

// SolveFFT computes v_H exactly (in the discrete spectral sense) from rho,
// writing into vH.
func (hs *HartreeSolver) SolveFFT(rho, vH []float64) {
	hs.plan.SolvePoissonPeriodic(rho, vH, hs.G.Hx, hs.G.Hy, hs.G.Hz)
}

// SolveFFTStencil solves the same problem but with the eigenvalues of the
// order-2 finite-difference Laplacian, λ(k) = Σ_axis 2(1−cos k h)/h², so the
// result is the exact fixed point of the DSA iteration (which relaxes the
// stencil operator). Useful for verifying DSA convergence.
func (hs *HartreeSolver) SolveFFTStencil(rho, vH []float64) {
	g := hs.G
	n := g.Len()
	work := make([]complex128, n)
	for i, r := range rho {
		work[i] = complex(r, 0)
	}
	hs.plan.Forward(work)
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				kx := 2 * math.Pi * float64(ix) / float64(g.Nx)
				ky := 2 * math.Pi * float64(iy) / float64(g.Ny)
				kz := 2 * math.Pi * float64(iz) / float64(g.Nz)
				lam := 2*(1-math.Cos(kx))/(g.Hx*g.Hx) +
					2*(1-math.Cos(ky))/(g.Hy*g.Hy) +
					2*(1-math.Cos(kz))/(g.Hz*g.Hz)
				idx := (ix*g.Ny+iy)*g.Nz + iz
				if lam == 0 {
					work[idx] = 0
					continue
				}
				work[idx] *= complex(4*math.Pi/lam, 0)
			}
		}
	}
	hs.plan.Inverse(work)
	for i := range vH {
		vH[i] = real(work[i])
	}
}

// StepDSA performs damped dynamical relaxation steps of ∇²v = −4πρ starting
// from the solver's current state and returns the final residual norm
// ‖∇²v+4πρ‖/‖4πρ‖. The state persists across calls, so successive QD steps
// with slowly varying ρ need only a few iterations each.
func (hs *HartreeSolver) StepDSA(rho []float64, iters int) float64 {
	g := hs.G
	n := g.Len()
	if len(rho) != n {
		panic("tddft: StepDSA rho length mismatch")
	}
	// Remove the mean charge (periodic neutralizing background), matching
	// the FFT solver's zero-mode projection.
	mean := 0.0
	for _, r := range rho {
		mean += r
	}
	mean /= float64(n)
	// Pseudo-time step below the explicit stability bound for the
	// Laplacian spectral radius λ_max = 4(1/hx²+1/hy²+1/hz²).
	lmax := 4 * (1/(g.Hx*g.Hx) + 1/(g.Hy*g.Hy) + 1/(g.Hz*g.Hz))
	dt2 := 1.9 / lmax
	gamma := hs.Gamma
	var rnorm float64
	for it := 0; it < iters; it++ {
		grid.Laplacian(g, grid.Order2, hs.v, hs.resid)
		rnorm = 0
		srcNorm := 0.0
		for i := 0; i < n; i++ {
			r := hs.resid[i] + 4*math.Pi*(rho[i]-mean)
			hs.resid[i] = r
			rnorm += r * r
			s := 4 * math.Pi * (rho[i] - mean)
			srcNorm += s * s
		}
		if srcNorm > 0 {
			rnorm = math.Sqrt(rnorm / srcNorm)
		} else {
			rnorm = math.Sqrt(rnorm)
		}
		// Damped Verlet: v_new = v + (1-γ)(v - v_prev) + dt² r.
		for i := 0; i < n; i++ {
			vNew := hs.v[i] + (1-gamma)*(hs.v[i]-hs.vPrev[i]) + dt2*hs.resid[i]
			hs.vPrev[i] = hs.v[i]
			hs.v[i] = vNew
		}
	}
	return rnorm
}

// Potential returns the DSA solver's current potential (live slice).
func (hs *HartreeSolver) Potential() []float64 { return hs.v }

// XCPotentialLDA fills vxc with the Slater exchange (Dirac LDA,
// v_x = −(3/π)^{1/3} n^{1/3}), the local exchange-correlation model used for
// the domain-local potential. Negative densities are clamped to zero.
func XCPotentialLDA(rho, vxc []float64) {
	c := -math.Cbrt(3 / math.Pi)
	for i, n := range rho {
		if n <= 0 {
			vxc[i] = 0
			continue
		}
		vxc[i] = c * math.Cbrt(n)
	}
}

// XCEnergyLDA returns the Slater exchange energy E_x = −(3/4)(3/π)^{1/3}∫n^{4/3}.
func XCEnergyLDA(g grid.Grid, rho []float64) float64 {
	c := -0.75 * math.Cbrt(3/math.Pi)
	sum := 0.0
	for _, n := range rho {
		if n > 0 {
			sum += math.Pow(n, 4.0/3.0)
		}
	}
	return c * sum * g.DV()
}
