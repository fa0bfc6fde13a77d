package maxwell

import (
	"fmt"
	"math"

	"mlmd/internal/linalg"
	"mlmd/internal/shard/halo"
	"mlmd/internal/units"
)

// Sim3D is a 3-D periodic FDTD propagation of the Maxwell curl pair on a
// domain-decomposed lattice: three-component E and B fields on
// halo.GridFields (ghost width 1), stepped leapfrog-style —
//
//	E += Δt·(c ∇×B − 4πJ)   (backward differences)
//	B −= Δt·c ∇×E           (forward differences)
//
// with a B-ghost refresh before the E update and an E-ghost refresh
// before the B update, each of only the ghosts that update reads. Every
// owned cell's update is a fixed expression over its face neighborhood,
// so trajectories are bitwise identical across all grid shapes and
// transports (shard.GridEngine's identity matrix pins this). Every
// product is rounded before it is added
// (linalg.CurlRows, applySource), so no GOARCH may fuse one and an
// undriven run has the same bits everywhere; the source's pulse sample
// goes through math.Exp/Sin/Cos, which do not promise that. Sim3D
// implements shard.GridWorkload structurally without importing shard.
//
// The optional current source drives Jz at one global cell with the
// pulse's electric-field envelope — a point antenna radiating into the
// box. With no source the closed box conserves the discrete field energy
// up to the leapfrog oscillation (pinned by the energy property test).
type Sim3D struct {
	// D is the domain block of this rank.
	D halo.Domain
	// E and B are the face fields (3 components per cell, ghost width 1).
	E, B *halo.GridField
	// H is the lattice spacing per axis (bohr).
	H [3]float64
	// Dt is the time step (a.u.).
	Dt float64
	// Drive is the source envelope; Source is the driven global cell and
	// SourceAmp the current amplitude (0 disables the source).
	Drive     Pulse
	Source    [3]int
	SourceAmp float64

	t    float64
	step int
}

// Sim3DConfig configures NewSim3D.
type Sim3DConfig struct {
	// H is the lattice spacing per axis (bohr).
	H [3]float64
	// Dt is the time step (a.u.); must satisfy the 3-D CFL bound
	// c·Δt ≤ h_min/√3.
	Dt float64
	// Drive, Source, SourceAmp configure the point current source
	// (SourceAmp 0 disables it).
	Drive     Pulse
	Source    [3]int
	SourceAmp float64
}

// NewSim3D builds the rank-local simulation on domain block d.
func NewSim3D(d halo.Domain, cfg Sim3DConfig) (*Sim3D, error) {
	if d.Ghost != 1 {
		return nil, fmt.Errorf("maxwell: Sim3D needs ghost width 1, domain has %d", d.Ghost)
	}
	hmin := math.Inf(1)
	for a := 0; a < 3; a++ {
		if cfg.H[a] <= 0 {
			return nil, fmt.Errorf("maxwell: axis %d spacing %g", a, cfg.H[a])
		}
		hmin = math.Min(hmin, cfg.H[a])
	}
	if cfg.Dt <= 0 || units.LightSpeed*cfg.Dt > hmin/math.Sqrt(3) {
		return nil, fmt.Errorf("maxwell: CFL violated: c*dt = %g > h_min/sqrt(3) = %g",
			units.LightSpeed*cfg.Dt, hmin/math.Sqrt(3))
	}
	for a := 0; a < 3; a++ {
		if cfg.Source[a] < 0 || cfg.Source[a] >= d.N[a] {
			return nil, fmt.Errorf("maxwell: source cell %v outside the %v lattice", cfg.Source, d.N)
		}
	}
	return &Sim3D{
		D: d, E: halo.NewGridField(d, 3), B: halo.NewGridField(d, 3),
		H: cfg.H, Dt: cfg.Dt,
		Drive: cfg.Drive, Source: cfg.Source, SourceAmp: cfg.SourceAmp,
	}, nil
}

// Time returns the current simulation time (a.u.).
func (s *Sim3D) Time() float64 { return s.t }

// InitRandom fills E and B with deterministic per-global-cell noise of
// the given amplitude: each component hashes (seed, global cell, field,
// component), so every decomposition fills identical global state.
func (s *Sim3D) InitRandom(seed uint64, amp float64) {
	d := s.D
	for f, fld := range []*halo.GridField{s.E, s.B} {
		for ox := 0; ox < d.Own[0]; ox++ {
			for oy := 0; oy < d.Own[1]; oy++ {
				for oz := 0; oz < d.Own[2]; oz++ {
					gid := uint64(((d.Off[0]+ox)*d.N[1]+d.Off[1]+oy)*d.N[2] + d.Off[2] + oz)
					base := fld.OwnIndex(ox, oy, oz)
					for c := 0; c < 3; c++ {
						h := splitmix64(seed ^ (gid*6 + uint64(f*3+c) + 0x51ED2701))
						fld.Data[base+c] = amp * (float64(h>>11)/(1<<53) - 0.5)
					}
				}
			}
		}
	}
}

// splitmix64 is the SplitMix64 finalizer — a stateless hash, so values
// depend only on the global cell, never on iteration order.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Step advances the fields by Δt, refreshing ghosts through ex. The
// interior cells (those whose stencil never reaches a partitioned-axis
// ghost) update while the ghost frames are in flight.
//
//mlmd:hotpath
func (s *Sim3D) Step(ex *halo.Exchanger) {
	// E update reads B at self and minus neighbors: trim the low face.
	s.halfStep(ex, s.B, s.updateE, halo.Minus)
	s.applySource()
	// B update reads E at self and plus neighbors: trim the high face.
	s.halfStep(ex, s.E, s.updateB, halo.Plus)
	s.t += s.Dt
	s.step++
}

// halfStep refreshes the ghosts of read that update reads and runs update
// over the owned box, the interior while the exchange is in flight. The
// curl's differences along an axis step toward one side only, and across
// an axis's face they take only the two components transverse to it, so
// each axis's read set is that side and those components: one frame per
// partitioned axis, two thirds of each cell. Per-cell updates are
// independent, so the interior/boundary split cannot affect bits: every
// rank grid reproduces the 1×1×1 run, which has no partitioned axis and so
// no split.
//
//mlmd:hotpath
func (s *Sim3D) halfStep(ex *halo.Exchanger, read *halo.GridField, update func(lo, hi [3]int), side halo.Sides) {
	for a := 0; a < 3; a++ {
		read.PostAxis(ex, a, halo.Reads{Sides: side, Comps: transverse(a)})
	}
	ilo, ihi := s.interiorBox(side)
	update(ilo, ihi)
	for a := 0; a < 3; a++ {
		read.FinishAxis(ex, a)
	}
	s.boundarySlabs(ilo, ihi, update)
}

// transverse is the component mask of the two field components
// transverse to axis: the ones the Yee curl reads across that axis's
// faces.
func transverse(axis int) uint64 { return 0b111 &^ (1 << axis) }

// interiorBox returns the owned sub-box whose update never reads a
// partitioned-axis ghost on the given side.
func (s *Sim3D) interiorBox(side halo.Sides) (lo, hi [3]int) {
	for a := 0; a < 3; a++ {
		hi[a] = s.D.Own[a]
		if s.D.Partitioned(a) {
			if side&halo.Minus != 0 {
				lo[a] = 1
			}
			if side&halo.Plus != 0 {
				hi[a]--
			}
			if hi[a] < lo[a] {
				hi[a] = lo[a]
			}
		}
	}
	return lo, hi
}

// boundarySlabs decomposes ownedBox minus the interior box into disjoint
// slabs and applies fn to each. Per-cell updates are independent, so the
// slab order cannot affect bits.
func (s *Sim3D) boundarySlabs(ilo, ihi [3]int, fn func(lo, hi [3]int)) {
	var lo, hi [3]int
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = 0, s.D.Own[a]
	}
	for a := 0; a < 3; a++ {
		if ilo[a] > lo[a] {
			l, h := lo, hi
			h[a] = ilo[a]
			fn(l, h)
		}
		if ihi[a] < hi[a] {
			l, h := lo, hi
			l[a] = ihi[a]
			fn(l, h)
		}
		lo[a], hi[a] = ilo[a], ihi[a]
	}
}

// updateE applies E += Δt·c ∇×B with backward differences over the owned
// box [lo, hi): one linalg.CurlRows sweep.
//
//mlmd:hotpath
func (s *Sim3D) updateE(lo, hi [3]int) {
	linalg.CurlRows(linalg.CurlAddBackward, s.E.Data, s.B.Data, s.curlBox(lo, hi), s.H, s.Dt*units.LightSpeed)
}

// updateB applies B −= Δt·c ∇×E with forward differences over the owned
// box [lo, hi): one linalg.CurlRows sweep.
//
//mlmd:hotpath
func (s *Sim3D) updateB(lo, hi [3]int) {
	linalg.CurlRows(linalg.CurlSubForward, s.B.Data, s.E.Data, s.curlBox(lo, hi), s.H, s.Dt*units.LightSpeed)
}

// curlBox is the owned box [lo, hi) in the layout E and B share.
func (s *Sim3D) curlBox(lo, hi [3]int) linalg.CurlBox {
	sy := s.E.Ext[2] * 3
	return linalg.CurlBox{
		Base: s.E.OwnIndex(lo[0], lo[1], lo[2]),
		N:    [3]int{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]},
		SX:   s.E.Ext[1] * sy,
		SY:   sy,
	}
}

// applySource injects the point current into Ez if this rank owns the
// source cell: Ez −= 4π·Δt·J(t), J(t) = amp·E_pulse(t).
//
//mlmd:hotpath
func (s *Sim3D) applySource() {
	if s.SourceAmp == 0 {
		return
	}
	d := s.D
	for a := 0; a < 3; a++ {
		if s.Source[a] < d.Off[a] || s.Source[a] >= d.Off[a]+d.Own[a] {
			return
		}
	}
	j := s.SourceAmp * s.Drive.EFieldAt(s.t)
	idx := s.E.OwnIndex(s.Source[0]-d.Off[0], s.Source[1]-d.Off[1], s.Source[2]-d.Off[2])
	s.E.Data[idx+2] -= float64(4 * math.Pi * s.Dt * j)
}

// Energy returns this rank's field energy ∫(E²+B²)/8π dV over its owned
// cells. Rank-local; AllReduce the Partials for the global value.
func (s *Sim3D) Energy() float64 {
	e2, b2 := s.fieldSums()
	dv := s.H[0] * s.H[1] * s.H[2]
	return (e2 + b2) * dv / (8 * math.Pi)
}

// fieldSums returns ΣE² and ΣB² over the owned cells, each summed as
// three per-component chains so that the adds' latencies overlap.
//
//mlmd:hotpath
func (s *Sim3D) fieldSums() (e2, b2 float64) {
	d := s.D
	var ex, ey, ez, bx, by, bz float64
	for ox := 0; ox < d.Own[0]; ox++ {
		for oy := 0; oy < d.Own[1]; oy++ {
			base := s.E.OwnIndex(ox, oy, 0)
			e := s.E.Data[base : base+3*d.Own[2]]
			b := s.B.Data[base : base+3*d.Own[2]]
			for i := 0; i+2 < len(e); i += 3 {
				ex += e[i] * e[i]
				ey += e[i+1] * e[i+1]
				ez += e[i+2] * e[i+2]
				bx += b[i] * b[i]
				by += b[i+1] * b[i+1]
				bz += b[i+2] * b[i+2]
			}
		}
	}
	return (ex + ey) + ez, (bx + by) + bz
}

// PartialLen implements shard.GridWorkload: [ΣE², ΣB²].
func (s *Sim3D) PartialLen() int { return 2 }

// Partials implements shard.GridWorkload.
//
//mlmd:hotpath
func (s *Sim3D) Partials(p []float64) {
	p[0], p[1] = s.fieldSums()
}

// NumFields implements shard.GridWorkload: E and B.
func (s *Sim3D) NumFields() int { return 2 }

// FieldWidth implements shard.GridWorkload.
func (s *Sim3D) FieldWidth(idx int) int { return 3 }

// PackField implements shard.GridWorkload: field 0 is E, field 1 is B.
//
//mlmd:hotpath
func (s *Sim3D) PackField(idx int, buf []float64) []float64 {
	if idx == 0 {
		return s.E.PackOwned(buf)
	}
	return s.B.PackOwned(buf)
}
