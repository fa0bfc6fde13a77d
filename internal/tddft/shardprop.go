package tddft

import (
	"fmt"

	"mlmd/internal/linalg"
	"mlmd/internal/shard/halo"
)

// ShardProp is the domain-decomposed split-operator propagator: one rank's
// block of the Kohn–Sham orbitals as a halo.GridFieldC (C = Norb complex
// components per cell), advanced by the same Strang product the serial
// KinProp applies —
//
//	e^{−iΔt v/2} · Π_ax [even(Δt/2) odd(Δt) even(Δt/2)] · e^{−iΔt diag} · e^{−iΔt v/2}
//
// with every per-cell update evaluated by the same formula: the rotation
// and phase kernels of internal/linalg that KinProp's blocked rungs call,
// and linalg.ZRot for the one-sided pairs. The domain split is pair-aligned
// (halo.NewDomain even=true): every even-parity pair (2k, 2k+1) is rank-
// local, so only the odd-parity pairs straddle block boundaries. Those are
// computed one-sidedly — the rank owning the low element a evaluates
// orb[a] = c·va + f·vb from the ghost vb, the rank owning b evaluates
// orb[b] = c·vb + b·va from the ghost va — which are exactly the two
// assignments of the serial pair rotation, so the sharded propagation is
// bitwise identical to the serial one on any rank grid
// (TestShardPropMatchesSerial, and the tddft rows of internal/shard's
// identity oracle).
//
// The laser pulse enters as a uniform vector potential A_x(t) through the
// same Peierls phase angle θ = A_x·h_x/c the serial kin_prop uses.
type ShardProp struct {
	D halo.Domain
	// W holds the orbitals: W.Data[Index(x,y,z)*Norb + s].
	W    *halo.GridFieldC
	Norb int
	// Vloc is the local potential on the owned cells, x-major z-fastest.
	Vloc []float64
	// Dt is the time step (a.u.).
	Dt float64
	// Ax samples the uniform vector potential A_x at time t (nil = 0).
	Ax func(t float64) float64

	hop  [3]float64 // −1/(2h²) per axis
	diag float64    // Σ 1/h²
	hx   float64
	dV   float64

	// evenPairs/oddPairs are the two-sided (a,b) pairs as cell indices
	// (GridFieldC.Index / Norb), validated for the rotation kernel.
	// oddLow/oddHigh hold (owned, ghost) one-sided boundary pairs as Data
	// base offsets (GridFieldC.Index values, already ×Norb).
	evenPairs [3]linalg.ZPairs
	oddPairs  [3]linalg.ZPairs
	oddLow    [3][]int32
	oddHigh   [3][]int32

	// phase is the half-step potential phase e^{−i·Δt/2·v_loc} on the owned
	// cells, evaluated once per Step for both half-steps.
	phase []complex128

	t    float64
	step int
}

// ShardPropConfig configures one rank's ShardProp block.
type ShardPropConfig struct {
	Norb int
	// H is the mesh spacing per axis (a.u.).
	H [3]float64
	// Dt is the time step.
	Dt float64
	// Ax samples the driving vector potential A_x(t) (nil = no drive).
	Ax func(t float64) float64
	// Vloc samples the static local potential at a global cell.
	Vloc func(gx, gy, gz int) float64
}

// NewShardProp builds the propagator on domain block d. The global mesh
// must have even dimensions (the serial KinProp requirement) and d must be
// pair-aligned with ghost width ≥ 1.
func NewShardProp(d halo.Domain, cfg ShardPropConfig) (*ShardProp, error) {
	if cfg.Norb < 1 {
		return nil, fmt.Errorf("tddft: need at least 1 orbital, got %d", cfg.Norb)
	}
	if d.Ghost < 1 {
		return nil, fmt.Errorf("tddft: shard propagation needs ghost width >= 1, got %d", d.Ghost)
	}
	for ax := 0; ax < 3; ax++ {
		if cfg.H[ax] <= 0 {
			return nil, fmt.Errorf("tddft: mesh spacing h[%d] = %g must be positive", ax, cfg.H[ax])
		}
		if d.N[ax]%2 != 0 {
			return nil, fmt.Errorf("tddft: split-operator pairing needs even dims, axis %d has %d", ax, d.N[ax])
		}
		if d.Off[ax]%2 != 0 || d.Own[ax]%2 != 0 {
			return nil, fmt.Errorf("tddft: axis %d block [%d,%d) is not pair-aligned (use the even domain split)", ax, d.Off[ax], d.Off[ax]+d.Own[ax])
		}
	}
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("tddft: time step %g must be positive", cfg.Dt)
	}
	sp := &ShardProp{
		D:     d,
		W:     halo.NewGridFieldC(d, cfg.Norb),
		Norb:  cfg.Norb,
		Vloc:  make([]float64, d.Len()),
		phase: make([]complex128, d.Len()),
		Dt:    cfg.Dt,
		Ax:    cfg.Ax,
		hx:    cfg.H[0],
		dV:    cfg.H[0] * cfg.H[1] * cfg.H[2],
	}
	for ax := 0; ax < 3; ax++ {
		sp.hop[ax] = -0.5 / (cfg.H[ax] * cfg.H[ax])
		sp.diag += 1 / (cfg.H[ax] * cfg.H[ax])
	}
	if cfg.Vloc != nil {
		k := 0
		for ox := 0; ox < d.Own[0]; ox++ {
			for oy := 0; oy < d.Own[1]; oy++ {
				for oz := 0; oz < d.Own[2]; oz++ {
					sp.Vloc[k] = cfg.Vloc(d.Off[0]+ox, d.Off[1]+oy, d.Off[2]+oz)
					k++
				}
			}
		}
	}
	sp.buildPairs()
	return sp, nil
}

// buildPairs enumerates the pair-rotation plan: for each axis, the local
// even pairs (always interior — the split is pair-aligned), the local odd
// pairs (interior, plus the periodic wrap pair when the axis is not
// partitioned), and the one-sided odd boundary pairs against the ghost
// layers of a partitioned axis.
func (sp *ShardProp) buildPairs() {
	d, f := sp.D, sp.W
	norb := int32(sp.Norb)
	for ax := 0; ax < 3; ax++ {
		part := d.Partitioned(ax)
		var even, odd []int32
		var lc [3]int
		for lc[0] = 0; lc[0] < d.Own[0]; lc[0]++ {
			for lc[1] = 0; lc[1] < d.Own[1]; lc[1]++ {
				for lc[2] = 0; lc[2] < d.Own[2]; lc[2]++ {
					i := lc[ax]
					a := int32(f.Index(d.Ghost+lc[0], d.Ghost+lc[1], d.Ghost+lc[2]))
					nb := lc
					if (d.Off[ax]+i)%2 == 0 {
						// Even pair (i, i+1): i+1 is always in-block.
						nb[ax] = i + 1
						b := int32(f.Index(d.Ghost+nb[0], d.Ghost+nb[1], d.Ghost+nb[2]))
						even = append(even, a/norb, b/norb)
						if i == 0 && part {
							// Odd pair (i−1, i): the low neighbor lives in
							// the minus ghost layer; we own only b.
							nb[ax] = -1
							g := int32(f.Index(d.Ghost+nb[0], d.Ghost+nb[1], d.Ghost+nb[2]))
							sp.oddLow[ax] = append(sp.oddLow[ax], a, g)
						}
						continue
					}
					// Odd pair (i, i+1).
					nb[ax] = i + 1
					if i+1 < d.Own[ax] {
						b := int32(f.Index(d.Ghost+nb[0], d.Ghost+nb[1], d.Ghost+nb[2]))
						odd = append(odd, a/norb, b/norb)
					} else if part {
						// High neighbor is the plus ghost layer; we own a.
						g := int32(f.Index(d.Ghost+nb[0], d.Ghost+nb[1], d.Ghost+nb[2]))
						sp.oddHigh[ax] = append(sp.oddHigh[ax], a, g)
					} else {
						// Periodic wrap pair — local on an unpartitioned axis.
						nb[ax] = 0
						b := int32(f.Index(d.Ghost+nb[0], d.Ghost+nb[1], d.Ghost+nb[2]))
						odd = append(odd, a/norb, b/norb)
					}
				}
			}
		}
		sp.evenPairs[ax] = linalg.NewZPairs(even)
		sp.oddPairs[ax] = linalg.NewZPairs(odd)
	}
}

// InitRandom fills the orbitals from a decomposition-invariant hash of the
// global cell and orbital indices: every rank computes the same value for
// the same global cell, so any rank grid starts from bitwise identical
// state. The field is not normalized — the identity tests compare raw bits.
func (sp *ShardProp) InitRandom(seed uint64, amp float64) {
	d, f := sp.D, sp.W
	for ox := 0; ox < d.Own[0]; ox++ {
		for oy := 0; oy < d.Own[1]; oy++ {
			for oz := 0; oz < d.Own[2]; oz++ {
				gid := uint64(((d.Off[0]+ox)*d.N[1]+d.Off[1]+oy)*d.N[2] + d.Off[2] + oz)
				base := f.OwnIndex(ox, oy, oz)
				for s := 0; s < sp.Norb; s++ {
					hr := splitmix64(seed ^ (gid*uint64(2*sp.Norb) + uint64(2*s)))
					hi := splitmix64(seed ^ (gid*uint64(2*sp.Norb) + uint64(2*s) + 1))
					f.Data[base+s] = complex(
						amp*(float64(hr>>11)/(1<<53)-0.5),
						amp*(float64(hi>>11)/(1<<53)-0.5),
					)
				}
			}
		}
	}
}

// Step advances the orbitals by one Δt: v/2 → kinetic axes → diagonal
// phase → v/2, the exact Propagator.Step + KinProp.Propagate sequence.
//
//mlmd:hotpath
func (sp *ShardProp) Step(ex *halo.Exchanger) {
	dt := sp.Dt
	var axPot float64
	if sp.Ax != nil {
		// t = step·Δt by multiplication, not accumulation: the drive must
		// sample bitwise identical times on every rank and in the serial
		// reference harness.
		axPot = sp.Ax(float64(sp.step) * dt)
	}
	theta := axPot * sp.hx / lightC

	phaseTable(sp.phase, sp.Vloc, dt/2)
	sp.vprop()
	for ax := 0; ax < 3; ax++ {
		for _, sub := range strang {
			c, f, b := pairCoef(sp.hop[ax], dt*sub.frac, axisTheta(ax, theta))
			if sub.parity == 0 {
				sp.rotatePairs(sp.evenPairs[ax], c, f, b)
				continue
			}
			// Odd sweep: boundary pairs read post-even(Δt/2) neighbor
			// values through the axis ghosts — both faces, every orbital —
			// exchanged while the interior pairs rotate.
			if !sp.D.Partitioned(ax) {
				sp.rotatePairs(sp.oddPairs[ax], c, f, b)
				continue
			}
			sp.W.PostAxis(ex, ax, halo.Reads{Sides: halo.Both, Comps: halo.AllComps})
			sp.rotatePairs(sp.oddPairs[ax], c, f, b)
			sp.W.FinishAxis(ex, ax)
			sp.rotateOneSided(sp.oddLow[ax], c, b)
			sp.rotateOneSided(sp.oddHigh[ax], c, f)
		}
	}
	// Diagonal kinetic phase over the owned cells.
	sp.scaleOwned(diagPhase(dt, sp.diag))
	sp.vprop()

	sp.step++
	sp.t = float64(sp.step) * dt
}

// rotatePairs applies the 2×2 pair rotation to every (a,b) pair — the
// sweep kernel KinProp's blocked rungs call.
//
//mlmd:hotpath
func (sp *ShardProp) rotatePairs(pairs linalg.ZPairs, c float64, f, b complex128) {
	linalg.ZRotPairs(sp.W.Data, sp.Norb, pairs, c, f, b)
}

// rotateOneSided applies one assignment of a boundary pair whose partner
// lives in a ghost layer: own = c·own + k·ghost for every (own, ghost)
// pair. For a low-side pair (the partner a is the minus ghost) k is the
// backward factor b, for a high-side pair (the partner b is the plus ghost)
// the forward factor f — the two halves of the serial rotation.
//
//mlmd:hotpath
func (sp *ShardProp) rotateOneSided(pairs []int32, c float64, k complex128) {
	norb := sp.Norb
	data := sp.W.Data
	for p := 0; p < len(pairs); p += 2 {
		own := data[int(pairs[p]):][:norb]
		ghost := data[int(pairs[p+1]):][:norb]
		for s := range own {
			own[s] = linalg.ZRot(c, k, own[s], ghost[s])
		}
	}
}

// vprop applies the half-step local-potential phase to the owned cells,
// one z-row of cells per kernel call.
//
//mlmd:hotpath
func (sp *ShardProp) vprop() {
	d, f := sp.D, sp.W
	nz := d.Own[2]
	k := 0
	for ox := 0; ox < d.Own[0]; ox++ {
		for oy := 0; oy < d.Own[1]; oy++ {
			base := f.OwnIndex(ox, oy, 0)
			linalg.ZPhaseRows(f.Data[base:base+nz*sp.Norb], sp.Norb, sp.phase[k:k+nz])
			k += nz
		}
	}
}

// scaleOwned multiplies every owned-cell orbital value by rot.
//
//mlmd:hotpath
func (sp *ShardProp) scaleOwned(rot complex128) {
	d, f := sp.D, sp.W
	r := [1]complex128{rot}
	rowLen := d.Own[2] * sp.Norb
	for ox := 0; ox < d.Own[0]; ox++ {
		for oy := 0; oy < d.Own[1]; oy++ {
			base := f.OwnIndex(ox, oy, 0)
			linalg.ZPhaseRows(f.Data[base:base+rowLen], rowLen, r[:])
		}
	}
}

// Time returns the propagated physical time.
func (sp *ShardProp) Time() float64 { return sp.t }

// --- shard.GridWorkload ---

// PartialLen is Norb: one norm² partial per orbital.
func (sp *ShardProp) PartialLen() int { return sp.Norb }

// Partials accumulates each orbital's |ψ|²·dV over the owned cells.
// Unitary propagation conserves these, which the conservation tests check.
func (sp *ShardProp) Partials(p []float64) {
	d, f := sp.D, sp.W
	norb := sp.Norb
	for ox := 0; ox < d.Own[0]; ox++ {
		for oy := 0; oy < d.Own[1]; oy++ {
			base := f.OwnIndex(ox, oy, 0)
			for oz := 0; oz < d.Own[2]; oz++ {
				row := f.Data[base+oz*norb : base+(oz+1)*norb]
				for s, v := range row {
					p[s] += (real(v)*real(v) + imag(v)*imag(v)) * sp.dV
				}
			}
		}
	}
}

// NumFields is 1: the orbital field.
func (sp *ShardProp) NumFields() int { return 1 }

// FieldWidth is 2·Norb floats per cell (the complex wire codec).
func (sp *ShardProp) FieldWidth(idx int) int { return 2 * sp.Norb }

// PackField appends the owned orbitals as (re, im) pairs.
//
//mlmd:hotpath
func (sp *ShardProp) PackField(idx int, buf []float64) []float64 {
	return sp.W.PackOwned(buf)
}

// splitmix64 is the decomposition-invariant cell hash (same generator the
// Maxwell workload uses for its random fields).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
