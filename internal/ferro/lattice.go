// Package ferro models the prototypical ferroelectric topotronics material
// of the paper, PbTiO3: a perovskite supercell builder, an analytic
// core–shell-style effective Hamiltonian whose soft-mode double well gives
// the ferroelectric physics, and the photoexcitation coupling through which
// light switches the polar state (the mechanism of Linker et al., Sci. Adv.
// 2022, that the XS-NNQMD module reproduces).
//
// The effective Hamiltonian is the "first-principles-derived second
// principles" substrate (paper Sec. III, ref [13]): it stands in for the DFT
// reference when generating neural-network training data, and serves as the
// ground-state force field against which the Allegro-style model is
// validated.
package ferro

import (
	"fmt"

	"mlmd/internal/md"
	"mlmd/internal/units"
)

// Species indices within a PbTiO3 perovskite cell (md.System.Type).
const (
	// SpPb is the A-site lead at the cell corner.
	SpPb = 0
	// SpTi is the B-site titanium at the body center, whose off-centering
	// is the cell's soft mode.
	SpTi = 1
	// SpO is each of the three face-center oxygens.
	SpO = 2
)

// AtomsPerCell is the 5-atom perovskite basis.
const AtomsPerCell = 5

// LatticeConstant is the cubic PbTiO3 lattice constant in Bohr (≈3.97 Å).
var LatticeConstant = units.Bohr(3.97)

// Lattice describes an Nx×Ny×Nz perovskite supercell and the mapping
// between atoms and unit cells.
type Lattice struct {
	Nx, Ny, Nz int
	A          float64 // lattice constant (Bohr)
	// TiIndex[c] is the atom index of the Ti of cell c; CellOf[i] the cell
	// of atom i (or -1 for none... all atoms belong to a cell).
	TiIndex []int
	// R0 holds the ideal (paraelectric) lattice sites, flat 3N.
	R0 []float64
}

// NumCells returns the number of unit cells.
func (l *Lattice) NumCells() int { return l.Nx * l.Ny * l.Nz }

// CellIndex maps cell coordinates to a linear cell id (z fastest).
func (l *Lattice) CellIndex(cx, cy, cz int) int {
	return (cx*l.Ny+cy)*l.Nz + cz
}

// CellCoords inverts CellIndex.
func (l *Lattice) CellCoords(c int) (cx, cy, cz int) {
	cz = c % l.Nz
	cy = (c / l.Nz) % l.Ny
	cx = c / (l.Ny * l.Nz)
	return
}

// NewLattice builds an nx×ny×nz PbTiO3 supercell as an md.System plus the
// lattice bookkeeping. Atom order per cell: Pb, Ti, O, O, O.
func NewLattice(nx, ny, nz int) (*md.System, *Lattice, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, nil, fmt.Errorf("ferro: bad supercell %dx%dx%d", nx, ny, nz)
	}
	a := LatticeConstant
	ncells := nx * ny * nz
	n := ncells * AtomsPerCell
	sys, err := md.NewSystem(n, float64(nx)*a, float64(ny)*a, float64(nz)*a)
	if err != nil {
		return nil, nil, err
	}
	lat := &Lattice{Nx: nx, Ny: ny, Nz: nz, A: a,
		TiIndex: make([]int, ncells), R0: make([]float64, 3*n)}
	// Basis in fractional coordinates: Pb corner, Ti body center, O face
	// centers.
	basis := []struct {
		sp   int
		f    [3]float64
		mass float64
	}{
		{SpPb, [3]float64{0, 0, 0}, units.MassAU(units.MassPbAMU)},
		{SpTi, [3]float64{0.5, 0.5, 0.5}, units.MassAU(units.MassTiAMU)},
		{SpO, [3]float64{0.5, 0.5, 0}, units.MassAU(units.MassOAMU)},
		{SpO, [3]float64{0.5, 0, 0.5}, units.MassAU(units.MassOAMU)},
		{SpO, [3]float64{0, 0.5, 0.5}, units.MassAU(units.MassOAMU)},
	}
	i := 0
	for cx := 0; cx < nx; cx++ {
		for cy := 0; cy < ny; cy++ {
			for cz := 0; cz < nz; cz++ {
				c := lat.CellIndex(cx, cy, cz)
				for bi, b := range basis {
					x := (float64(cx) + b.f[0]) * a
					y := (float64(cy) + b.f[1]) * a
					z := (float64(cz) + b.f[2]) * a
					sys.X[3*i], sys.X[3*i+1], sys.X[3*i+2] = x, y, z
					lat.R0[3*i], lat.R0[3*i+1], lat.R0[3*i+2] = x, y, z
					sys.Mass[i] = b.mass
					sys.Type[i] = b.sp
					if bi == 1 {
						lat.TiIndex[c] = i
					}
					i++
				}
			}
		}
	}
	return sys, lat, nil
}

// NeighborCells returns the 6 nearest-neighbor cell ids of cell c in the
// fixed order +x, −x, +y, −y, +z, −z (periodic). The order is part of the
// contract: force accumulation follows it, so any decomposed evaluator
// that walks the same order reproduces the serial sums bitwise.
func (l *Lattice) NeighborCells(c int) [6]int {
	cx, cy, cz := l.CellCoords(c)
	return [6]int{
		l.CellIndex(wrapc(cx+1, l.Nx), cy, cz),
		l.CellIndex(wrapc(cx-1, l.Nx), cy, cz),
		l.CellIndex(cx, wrapc(cy+1, l.Ny), cz),
		l.CellIndex(cx, wrapc(cy-1, l.Ny), cz),
		l.CellIndex(cx, cy, wrapc(cz+1, l.Nz)),
		l.CellIndex(cx, cy, wrapc(cz-1, l.Nz)),
	}
}

// SoftMode returns the soft-mode (Ti off-centering) displacement vector of
// cell c, minimum-imaged.
func (l *Lattice) SoftMode(sys *md.System, c int) (sx, sy, sz float64) {
	i := l.TiIndex[c]
	sx = md.MinImage1(sys.X[3*i]-l.R0[3*i], sys.Lx)
	sy = md.MinImage1(sys.X[3*i+1]-l.R0[3*i+1], sys.Ly)
	sz = md.MinImage1(sys.X[3*i+2]-l.R0[3*i+2], sys.Lz)
	return
}

// SetSoftMode displaces the Ti of cell c to soft-mode vector (sx,sy,sz).
func (l *Lattice) SetSoftMode(sys *md.System, c int, sx, sy, sz float64) {
	i := l.TiIndex[c]
	sys.X[3*i] = l.R0[3*i] + sx
	sys.X[3*i+1] = l.R0[3*i+1] + sy
	sys.X[3*i+2] = l.R0[3*i+2] + sz
}

// Polarization returns the per-cell polarization proxy P_c = Z* s_c (a.u.),
// flattened 3*NumCells. Born effective charge Z* ≈ 7.1 e for the Ti-dominated
// soft mode of PbTiO3.
func (l *Lattice) Polarization(sys *md.System) []float64 {
	const zStar = 7.1
	out := make([]float64, 3*l.NumCells())
	for c := 0; c < l.NumCells(); c++ {
		sx, sy, sz := l.SoftMode(sys, c)
		out[3*c], out[3*c+1], out[3*c+2] = zStar*sx, zStar*sy, zStar*sz
	}
	return out
}
