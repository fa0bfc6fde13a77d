package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand"

	"mlmd/internal/ferro"
	"mlmd/internal/md"
	"mlmd/internal/topo"
	"mlmd/internal/xsnn"
)

// XSNNQMD is the excited-state neural-network MD module: a PbTiO3 lattice
// evolved under the blended GS/XS force field of Eq. (4), with the per-cell
// excitation map supplied by DC-MESH (or by the analytic pulse model in the
// cheap path).
type XSNNQMD struct {
	Sys   *md.System
	Lat   *ferro.Lattice
	Blend *xsnn.Blend
	// FF is the force field the step loop integrates under. It defaults
	// to Blend; SetForceField swaps in a drop-in replacement such as the
	// sharded engine (internal/shard), which evaluates the same blended
	// force decomposed across ranks.
	FF md.ForceField
	// ExcitationPerCell is the current w_c map (len NumCells).
	ExcitationPerCell []float64
	// DtMD is the MD time step (a.u.).
	DtMD float64
	// KT and Gamma configure the Langevin bath (Gamma 0 = NVE).
	KT, Gamma float64
	// CarrierLifetime is the excitation decay time (a.u.); 0 = no decay.
	CarrierLifetime float64
	seed            int64
	rng             *rand.Rand
	time            float64
	// perAtom is applyExcitation's scratch: every receiver copies the
	// weights, so one slice serves every step.
	perAtom []float64
}

// NewXSNNQMD wires the module with ground- and excited-state force fields.
// gs and xs are typically the trained Allegro-style model (GS) and the same
// model fine-tuned on excited-state data — for the analytic path they are
// the effective Hamiltonian with w = 0 and w = 1 respectively.
func NewXSNNQMD(sys *md.System, lat *ferro.Lattice, gs, xs md.ForceField, dtMD float64, seed int64) (*XSNNQMD, error) {
	if dtMD <= 0 {
		return nil, fmt.Errorf("core: bad MD step %g", dtMD)
	}
	x := &XSNNQMD{
		Sys: sys, Lat: lat,
		Blend:             xsnn.NewBlend(gs, xs),
		ExcitationPerCell: make([]float64, lat.NumCells()),
		perAtom:           make([]float64, sys.N),
		DtMD:              dtMD,
		seed:              seed,
		rng:               rand.New(rand.NewSource(seed)),
	}
	x.FF = x.Blend
	x.Blend.GS.ComputeForces(sys) // prime forces
	return x, nil
}

// perAtomWeighted is implemented by force fields that take the per-atom
// excitation map (xsnn.Blend and the sharded engine both do).
type perAtomWeighted interface {
	SetPerAtomWeights(w []float64)
}

// SetForceField replaces the step loop's force field with ff, which must
// evaluate the same force (e.g. the sharded engine over the same blend):
// the forces Sys holds stay, so the next half-kick uses exactly them. ff
// receives the per-atom excitation weights if it implements
// SetPerAtomWeights.
func (x *XSNNQMD) SetForceField(ff md.ForceField) {
	x.FF = ff
	x.applyExcitation()
}

// SetExcitationFromDomains maps DC-MESH per-domain n_exc onto per-cell
// weights: each domain α covers a block of lattice cells; its w =
// n_exc/nSat is assigned to the covered cells. domainsPerAxis is the
// (dx,dy,dz) of the DC decomposition; the lattice is split congruently.
func (x *XSNNQMD) SetExcitationFromDomains(nExc []float64, dx, dy, dz int, nSat float64) error {
	if len(nExc) != dx*dy*dz {
		return fmt.Errorf("core: %d domain excitations for %dx%dx%d domains", len(nExc), dx, dy, dz)
	}
	l := x.Lat
	if l.Nx%dx != 0 || l.Ny%dy != 0 || l.Nz%dz != 0 {
		return fmt.Errorf("core: lattice %dx%dx%d not divisible by domains %dx%dx%d",
			l.Nx, l.Ny, l.Nz, dx, dy, dz)
	}
	bx, by, bz := l.Nx/dx, l.Ny/dy, l.Nz/dz
	for cx := 0; cx < l.Nx; cx++ {
		for cy := 0; cy < l.Ny; cy++ {
			for cz := 0; cz < l.Nz; cz++ {
				alpha := ((cx/bx)*dy+(cy/by))*dz + (cz / bz)
				x.ExcitationPerCell[l.CellIndex(cx, cy, cz)] = xsnn.WeightFromExcitation(nExc[alpha], nSat)
			}
		}
	}
	x.applyExcitation()
	return nil
}

// SetUniformExcitation applies one w to every cell.
func (x *XSNNQMD) SetUniformExcitation(w float64) {
	for i := range x.ExcitationPerCell {
		x.ExcitationPerCell[i] = w
	}
	x.applyExcitation()
}

// applyExcitation pushes the cell map into the blend as per-atom weights.
// The XS force field itself represents the fully excited surface (its
// internal excitation is fixed at construction); intermediate excitation is
// expressed entirely through the blending weight of Eq. (4).
func (x *XSNNQMD) applyExcitation() {
	perAtom := x.perAtom
	for c := 0; c < x.Lat.NumCells(); c++ {
		w := x.ExcitationPerCell[c]
		ti := x.Lat.TiIndex[c]
		// The soft mode lives on Ti; neighboring cage atoms inherit the
		// cell weight too (they share the local electronic excitation).
		base := ti - 1 // Pb, Ti, O, O, O are contiguous per cell
		for k := 0; k < ferro.AtomsPerCell; k++ {
			perAtom[base+k] = w
		}
	}
	if wf, ok := x.FF.(perAtomWeighted); ok {
		wf.SetPerAtomWeights(perAtom)
	}
}

// Step advances the lattice by n MD steps, decaying the excitation map with
// the carrier lifetime, and returns the final potential energy.
func (x *XSNNQMD) Step(n int) float64 {
	var pe float64
	for i := 0; i < n; i++ {
		pe = md.VelocityVerlet(x.Sys, x.FF, x.DtMD)
		if x.Gamma > 0 {
			md.LangevinThermostat(x.Sys, x.KT, x.Gamma, x.DtMD, x.rng)
		}
		if x.CarrierLifetime > 0 {
			xsnn.DecayExcitation(x.ExcitationPerCell, x.CarrierLifetime, x.DtMD)
			x.applyExcitation()
		}
		x.time += x.DtMD
	}
	return pe
}

// replayBath puts the Langevin bath's random stream where it stands after
// steps bathed steps from construction: it reseeds the stream and draws
// the 3N normals md.LangevinThermostat takes per step, steps times — the
// resume path of a checkpointed run, whose stream the checkpoint does not
// hold. Without a bath (Gamma 0) it does nothing.
func (x *XSNNQMD) replayBath(steps int) {
	if x.Gamma <= 0 {
		return
	}
	x.rng = rand.New(rand.NewSource(x.seed))
	for range steps * 3 * x.Sys.N {
		x.rng.NormFloat64()
	}
}

// Time returns elapsed MD time (a.u.).
func (x *XSNNQMD) Time() float64 { return x.time }

// SetTime restores the elapsed MD clock (the resume path of a checkpointed
// run; Step keeps advancing it as usual).
func (x *XSNNQMD) SetTime(t float64) { x.time = t }

// SetExcitationMap replaces the per-cell excitation map with w (length
// NumCells) and pushes it into the blended force field — the resume path
// of a checkpointed run, restoring exactly the decayed map the interrupted
// run carried.
func (x *XSNNQMD) SetExcitationMap(w []float64) error {
	if len(w) != len(x.ExcitationPerCell) {
		return fmt.Errorf("core: excitation map has %d cells, lattice has %d", len(w), len(x.ExcitationPerCell))
	}
	copy(x.ExcitationPerCell, w)
	x.applyExcitation()
	return nil
}

// PolarizationField returns the z-averaged 2-D polarization texture for
// topological analysis.
func (x *XSNNQMD) PolarizationField() *topo.Field {
	pol := x.Lat.Polarization(x.Sys)
	return topo.FromCells(pol, x.Lat.Nx, x.Lat.Ny, x.Lat.Nz)
}

// TopologicalCharge returns the skyrmion number of the current texture.
func (x *XSNNQMD) TopologicalCharge() float64 {
	return x.PolarizationField().Charge()
}

// StateCRC folds the IEEE-754 bits of the lattice positions, velocities and
// forces and of the excitation map into one CRC64 (ECMA): equal CRCs mean
// equal final states.
func (x *XSNNQMD) StateCRC() uint64 {
	var b []byte
	for _, vals := range [][]float64{x.Sys.X, x.Sys.V, x.Sys.F, x.ExcitationPerCell} {
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return crc64.Checksum(b, crc64.MakeTable(crc64.ECMA))
}
