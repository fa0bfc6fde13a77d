// Package grid provides the real-space finite-difference grids on which
// Kohn–Sham wave functions and potentials live, including the
// structure-of-arrays (SoA) orbital-fastest storage layout that the paper's
// data/loop re-ordering optimization (Sec. V.B.2) relies on.
package grid

import "fmt"

// Grid describes a uniform 3-D periodic finite-difference mesh.
type Grid struct {
	Nx, Ny, Nz int     // points along each axis
	Hx, Hy, Hz float64 // spacing along each axis (Bohr)
}

// New returns a Grid with the given point counts and spacings.
// It panics if any count is < 2 or any spacing is <= 0, because a
// finite-difference Laplacian is undefined there.
func New(nx, ny, nz int, hx, hy, hz float64) Grid {
	if nx < 2 || ny < 2 || nz < 2 {
		panic(fmt.Sprintf("grid: need at least 2 points per axis, got %dx%dx%d", nx, ny, nz))
	}
	if hx <= 0 || hy <= 0 || hz <= 0 {
		panic(fmt.Sprintf("grid: spacings must be positive, got %g,%g,%g", hx, hy, hz))
	}
	return Grid{Nx: nx, Ny: ny, Nz: nz, Hx: hx, Hy: hy, Hz: hz}
}

// NewCubic returns a cubic grid with n points and spacing h on each axis.
func NewCubic(n int, h float64) Grid { return New(n, n, n, h, h, h) }

// Len returns the total number of mesh points.
func (g Grid) Len() int { return g.Nx * g.Ny * g.Nz }

// DV returns the volume element per mesh point (Bohr^3).
func (g Grid) DV() float64 { return g.Hx * g.Hy * g.Hz }

// Lx, Ly, Lz return the periodic box lengths along each axis.
func (g Grid) LxLyLz() (float64, float64, float64) {
	return float64(g.Nx) * g.Hx, float64(g.Ny) * g.Hy, float64(g.Nz) * g.Hz
}

// Index maps (ix, iy, iz) to the linear mesh index with z fastest.
func (g Grid) Index(ix, iy, iz int) int {
	return (ix*g.Ny+iy)*g.Nz + iz
}

// Coords inverts Index.
func (g Grid) Coords(idx int) (ix, iy, iz int) {
	iz = idx % g.Nz
	iy = (idx / g.Nz) % g.Ny
	ix = idx / (g.Ny * g.Nz)
	return
}

// Wrap folds an integer coordinate into [0, n) periodically.
func Wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// Position returns the Cartesian position (Bohr) of mesh point (ix,iy,iz).
func (g Grid) Position(ix, iy, iz int) (x, y, z float64) {
	return float64(ix) * g.Hx, float64(iy) * g.Hy, float64(iz) * g.Hz
}

// MinImage returns the minimum-image displacement of dx in a periodic box of
// length l.
func MinImage(dx, l float64) float64 {
	for dx > l/2 {
		dx -= l
	}
	for dx < -l/2 {
		dx += l
	}
	return dx
}

// String implements fmt.Stringer.
func (g Grid) String() string {
	return fmt.Sprintf("grid %dx%dx%d h=(%.3f,%.3f,%.3f)", g.Nx, g.Ny, g.Nz, g.Hx, g.Hy, g.Hz)
}
