// Package topo analyzes and constructs topological polarization textures:
// skyrmion ansätze and superlattices in the per-cell polarization field of a
// ferroelectric, and the integer topological charge (skyrmion number) that
// protects them — the quantity whose light-induced switching is the science
// result of the paper (Fig. 3).
package topo

import (
	"fmt"
	"math"
)

// Field is a 3-component vector field on an Nx×Ny 2-D lattice (one layer of
// the polarization field; z fastest... row-major: idx = ix*Ny + iy).
type Field struct {
	Nx, Ny int
	V      []float64 // 3*(Nx*Ny): vx,vy,vz per site
}

// NewField allocates a zero field.
func NewField(nx, ny int) *Field {
	return &Field{Nx: nx, Ny: ny, V: make([]float64, 3*nx*ny)}
}

// At returns the vector at (ix, iy) (periodic).
func (f *Field) At(ix, iy int) (x, y, z float64) {
	i := 3 * (wrap(ix, f.Nx)*f.Ny + wrap(iy, f.Ny))
	return f.V[i], f.V[i+1], f.V[i+2]
}

// Set stores the vector at (ix, iy).
func (f *Field) Set(ix, iy int, x, y, z float64) {
	i := 3 * (wrap(ix, f.Nx)*f.Ny + wrap(iy, f.Ny))
	f.V[i], f.V[i+1], f.V[i+2] = x, y, z
}

func wrap(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// normalized returns the unit vector at (ix,iy); zero-length vectors map to
// +z so degenerate (paraelectric) regions carry no winding.
func (f *Field) normalized(ix, iy int) [3]float64 {
	x, y, z := f.At(ix, iy)
	n := math.Sqrt(x*x + y*y + z*z)
	if n < 1e-12 {
		return [3]float64{0, 0, 1}
	}
	return [3]float64{x / n, y / n, z / n}
}

// Charge returns the topological charge (skyrmion number) of the field via
// the Berg–Lüscher lattice construction: the sphere is tiled by the
// spherical triangles spanned by each lattice plaquette's corner spins; the
// signed solid angles sum to 4π × Q.
func (f *Field) Charge() float64 {
	var omega float64
	for ix := 0; ix < f.Nx; ix++ {
		for iy := 0; iy < f.Ny; iy++ {
			n1 := f.normalized(ix, iy)
			n2 := f.normalized(ix+1, iy)
			n3 := f.normalized(ix+1, iy+1)
			n4 := f.normalized(ix, iy+1)
			omega += solidAngle(n1, n2, n3)
			omega += solidAngle(n1, n3, n4)
		}
	}
	return omega / (4 * math.Pi)
}

// solidAngle returns the signed solid angle of the spherical triangle
// (a,b,c) using the Oosterom–Strackee formula.
func solidAngle(a, b, c [3]float64) float64 {
	num := a[0]*(b[1]*c[2]-b[2]*c[1]) - a[1]*(b[0]*c[2]-b[2]*c[0]) + a[2]*(b[0]*c[1]-b[1]*c[0])
	den := 1 + dot(a, b) + dot(b, c) + dot(a, c)
	return 2 * math.Atan2(num, den)
}

func dot(a, b [3]float64) float64 { return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] }

// SkyrmionParams describes one Néel-type skyrmion.
type SkyrmionParams struct {
	CX, CY float64 // center (lattice units)
	Radius float64 // core radius (lattice units)
	Charge int     // +1 or −1 winding
	// Pz0 is the background polarization magnitude.
	Pz0 float64
}

// WriteSkyrmion stamps a Néel skyrmion onto the field: the core points −z,
// the far field +z, with a radial in-plane component in the wall (width ~
// Radius). Polarization magnitude is Pz0 everywhere.
func (f *Field) WriteSkyrmion(p SkyrmionParams) {
	if p.Radius <= 0 {
		panic(fmt.Sprintf("topo: skyrmion radius %g must be positive", p.Radius))
	}
	for ix := 0; ix < f.Nx; ix++ {
		for iy := 0; iy < f.Ny; iy++ {
			dx := minImageF(float64(ix)-p.CX, float64(f.Nx))
			dy := minImageF(float64(iy)-p.CY, float64(f.Ny))
			r := math.Sqrt(dx*dx + dy*dy)
			if r > 3*p.Radius {
				continue // leave background untouched
			}
			// θ(r): π at the center → 0 far away (standard profile).
			theta := math.Pi * math.Exp(-r/p.Radius)
			if r == 0 {
				f.Set(ix, iy, 0, 0, -p.Pz0)
				continue
			}
			phi := math.Atan2(dy, dx)
			if p.Charge < 0 {
				phi = -phi
			}
			sx := p.Pz0 * math.Sin(theta) * math.Cos(phi)
			sy := p.Pz0 * math.Sin(theta) * math.Sin(phi)
			sz := p.Pz0 * math.Cos(theta)
			f.Set(ix, iy, sx, sy, sz)
		}
	}
}

// FillUniform sets every site to (0,0,pz).
func (f *Field) FillUniform(pz float64) {
	for i := 0; i < f.Nx*f.Ny; i++ {
		f.V[3*i], f.V[3*i+1], f.V[3*i+2] = 0, 0, pz
	}
}

// Superlattice stamps an sx×sy array of identical skyrmions on a +z
// background, spaced evenly — the skyrmion superlattice of the paper's
// topotronics application. Returns the expected total charge.
func (f *Field) Superlattice(sx, sy int, radius, pz0 float64, charge int) int {
	f.FillUniform(pz0)
	for i := 0; i < sx; i++ {
		for j := 0; j < sy; j++ {
			f.WriteSkyrmion(SkyrmionParams{
				CX:     (float64(i) + 0.5) * float64(f.Nx) / float64(sx),
				CY:     (float64(j) + 0.5) * float64(f.Ny) / float64(sy),
				Radius: radius,
				Charge: charge,
				Pz0:    pz0,
			})
		}
	}
	return sx * sy * charge
}

// MeanPz returns the average z polarization.
func (f *Field) MeanPz() float64 {
	var sum float64
	n := f.Nx * f.Ny
	for i := 0; i < n; i++ {
		sum += f.V[3*i+2]
	}
	return sum / float64(n)
}

// minImageF is this import-free package's copy of md.MinImage1, the canonical
// minimum image.
func minImageF(d, l float64) float64 {
	d -= l * math.Round(d/l)
	return d
}

// FromCells builds a 2-D field by averaging a 3-D per-cell polarization
// array (3*ncells, cell index (cx*ny+cy)*nz+cz) over z layers.
func FromCells(pol []float64, nx, ny, nz int) *Field {
	f := NewField(nx, ny)
	for cx := 0; cx < nx; cx++ {
		for cy := 0; cy < ny; cy++ {
			var sx, sy, sz float64
			for cz := 0; cz < nz; cz++ {
				c := (cx*ny+cy)*nz + cz
				sx += pol[3*c]
				sy += pol[3*c+1]
				sz += pol[3*c+2]
			}
			f.Set(cx, cy, sx/float64(nz), sy/float64(nz), sz/float64(nz))
		}
	}
	return f
}

// Switched reports whether the texture has topologically switched relative
// to a reference charge: the charge changed by at least half a quantum.
func Switched(before, after float64) bool {
	return math.Abs(after-before) >= 0.5
}
