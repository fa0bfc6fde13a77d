package tddft

import (
	"fmt"
	"math"

	"mlmd/internal/grid"
	"mlmd/internal/linalg"
	"mlmd/internal/par"
)

// This file implements the paper's kin_prop kernel — the local kinetic
// propagator exp(−iΔt T) of the split-operator scheme (Sec. V.A.5) — in the
// four implementations whose runtimes Table III compares:
//
//	ImplBaseline   AoS layout, per-point wrap arithmetic, trig in the
//	               innermost loop (the untuned original).
//	ImplReordered  SoA layout with orbital-fastest storage; stencil
//	               rotations are computed once per pair and reused across
//	               all Norb orbitals (Sec. V.B.2).
//	ImplBlocked    + planned pair lists handed whole to the sweep-level
//	               rotation and phase kernels (Sec. V.B.3).
//	ImplParallel   + hierarchical parallelism over independent pair sets
//	               (Sec. V.B.4) — the GPU-offload proxy.
//
// The kinetic operator uses the 7-point star (order-2) stencil
// T = Σ_axis d·I + o·(S₊+S₋), d = 1/h², o = −1/(2h²), and is applied as the
// unitary even–odd pair-rotation scheme of Richardson [41]: within each axis
// the hopping term splits into commuting 2×2 blocks over even and odd point
// pairs, each exponentiated exactly, composed as a Strang product
// R_even(Δt/2) R_odd(Δt) R_even(Δt/2). A uniform vector potential enters as
// a Peierls phase on the x hoppings.
//
// Every rung above the baseline evaluates one formula: the pair rotation
// linalg.ZRot (real cosine, complex hopping) and the phase product
// linalg.ZMul. ImplReordered walks it element by element in Go;
// ImplBlocked/ImplParallel hand whole pair lists to the linalg.ZRotPairs and
// linalg.ZPhaseRows kernels (AVX2 where available); ShardProp uses the same
// kernels on its rank-local lists. All three are therefore bitwise equal,
// which is what lets the scalar walk cross-check the assembly.

// Impl selects a kin_prop implementation.
type Impl int

const (
	// ImplBaseline is the untuned AoS kernel.
	ImplBaseline Impl = iota
	// ImplReordered applies the data/loop re-ordering optimization.
	ImplReordered
	// ImplBlocked adds blocking/tiling.
	ImplBlocked
	// ImplParallel adds hierarchical parallel regions.
	ImplParallel
)

// String implements fmt.Stringer.
func (im Impl) String() string {
	switch im {
	case ImplBaseline:
		return "baseline"
	case ImplReordered:
		return "reordered"
	case ImplBlocked:
		return "blocked"
	case ImplParallel:
		return "parallel"
	}
	return "unknown"
}

// KinProp is a planned kinetic propagator for a fixed grid.
type KinProp struct {
	G grid.Grid
	// pairs[axis][parity] is the validated list of point-index pairs.
	pairs [3][2]linalg.ZPairs
	// hop coefficient per axis: o = −1/(2h²).
	hop [3]float64
	// diag is Σ_axis 1/h².
	diag float64
}

// NewKinProp plans a propagator. Every axis length must be even so that the
// even–odd pairing closes periodically.
func NewKinProp(g grid.Grid) (*KinProp, error) {
	if g.Nx%2 != 0 || g.Ny%2 != 0 || g.Nz%2 != 0 {
		return nil, fmt.Errorf("tddft: kin_prop needs even grid dims, got %dx%dx%d", g.Nx, g.Ny, g.Nz)
	}
	kp := &KinProp{G: g}
	h := [3]float64{g.Hx, g.Hy, g.Hz}
	for ax := 0; ax < 3; ax++ {
		kp.hop[ax] = -0.5 / (h[ax] * h[ax])
		kp.diag += 1 / (h[ax] * h[ax])
	}
	dims := [3]int{g.Nx, g.Ny, g.Nz}
	for ax := 0; ax < 3; ax++ {
		for parity := 0; parity < 2; parity++ {
			var list []int32
			n := dims[ax]
			for ix := 0; ix < g.Nx; ix++ {
				for iy := 0; iy < g.Ny; iy++ {
					for iz := 0; iz < g.Nz; iz++ {
						var i int
						switch ax {
						case 0:
							i = ix
						case 1:
							i = iy
						default:
							i = iz
						}
						if i%2 != parity {
							continue
						}
						a := g.Index(ix, iy, iz)
						var b int
						switch ax {
						case 0:
							b = g.Index(grid.Wrap(ix+1, n), iy, iz)
						case 1:
							b = g.Index(ix, grid.Wrap(iy+1, n), iz)
						default:
							b = g.Index(ix, iy, grid.Wrap(iz+1, n))
						}
						list = append(list, int32(a), int32(b))
					}
				}
			}
			kp.pairs[ax][parity] = linalg.NewZPairs(list)
		}
	}
	return kp, nil
}

// Flops returns the nominal floating-point operation count of one Propagate
// call on norb orbitals, the way the paper books kin_prop: ~14 real ops per
// orbital per pair rotation (one general complex multiply-add per output);
// 3 axes × 3 pair sweeps of N/2 rotations each (even twice at half step, odd
// once), plus the diagonal phase (6 ops per point per orbital). The count is
// a fixed yardstick for the Table III/V rates, not the executed work: the
// canonical rotation linalg.ZRot exploits the real cosine and executes 20
// real ops per orbital per pair (10 per output) where two general complex
// multiply-adds per output would be 28.
func (kp *KinProp) Flops(norb int) uint64 {
	n := uint64(kp.G.Len())
	perAxis := 3 * (n / 2) * 14 // 3 pair sweeps of n/2 rotations
	return uint64(norb) * (3*perAxis + 6*n)
}

// Propagate applies exp(−iΔt T) to all orbitals of w in place using the
// selected implementation. ax is the uniform vector potential along x
// (Peierls phase). The field layout must match the implementation: AoS for
// ImplBaseline, SoA otherwise.
//
//mlmd:hotpath
func (kp *KinProp) Propagate(w *grid.WaveField, dt float64, axPot float64, impl Impl) {
	if w.G != kp.G {
		panic("tddft: Propagate grid mismatch")
	}
	switch impl {
	case ImplBaseline:
		if w.Layout != grid.LayoutAoS {
			panic("tddft: baseline kin_prop needs AoS layout")
		}
		kp.propagateBaseline(w, dt, axPot)
	case ImplReordered:
		kp.requireSoA(w)
		kp.propagateReordered(w, dt, axPot)
	case ImplBlocked:
		kp.requireSoA(w)
		kp.propagateBlocked(w, dt, axPot, false)
	case ImplParallel:
		kp.requireSoA(w)
		kp.propagateBlocked(w, dt, axPot, true)
	default:
		panic("tddft: unknown Impl")
	}
}

func (kp *KinProp) requireSoA(w *grid.WaveField) {
	if w.Layout != grid.LayoutSoA {
		panic("tddft: optimized kin_prop needs SoA layout")
	}
}

// peierlsTheta returns the Peierls phase angle for a +x hop.
func (kp *KinProp) peierlsTheta(axPot float64) float64 {
	return axPot * kp.G.Hx / lightC
}

// strang is the even–odd Strang product of one axis: which parity set is
// rotated, and by what fraction of the step.
var strang = [3]struct {
	parity int
	frac   float64
}{{0, 0.5}, {1, 1.0}, {0, 0.5}}

// pairCoef returns the coefficients of one pair-rotation sweep by the
// hopping angle hop·t: the real cosine c, and the forward and backward
// hopping factors −i·sin·e^{±iθ} carrying the Peierls phase θ (0 on the
// axes the vector potential does not point along). The optimized rungs and
// ShardProp all take their coefficients from here.
func pairCoef(hop, t, theta float64) (c float64, f, b complex128) {
	angle := hop * t
	is := complex(0, -math.Sin(angle))
	var ph complex128 = 1
	if theta != 0 {
		ph = complex(math.Cos(theta), math.Sin(theta))
	}
	return math.Cos(angle), is * ph, is * conj(ph)
}

// axisTheta is the Peierls angle of a hop along ax, given the angle theta of
// a +x hop: the uniform vector potential points along x, so only x hops
// carry one.
func axisTheta(ax int, theta float64) float64 {
	if ax != 0 {
		return 0
	}
	return theta
}

// diagPhase is the uniform diagonal kinetic phase e^{−iΔt·diag}.
func diagPhase(dt, diag float64) complex128 {
	ph := -dt * diag
	return complex(math.Cos(ph), math.Sin(ph))
}

// --- Baseline: AoS, wrap arithmetic and trig inside the loops. ---

//mlmd:hotpath
func (kp *KinProp) propagateBaseline(w *grid.WaveField, dt, axPot float64) {
	g := kp.G
	ngrid := g.Len()
	theta := kp.peierlsTheta(axPot)
	// Axis sweep x, y, z; within each axis: even(dt/2), odd(dt), even(dt/2).
	for s := 0; s < w.Norb; s++ {
		orb := w.Data[s*ngrid : (s+1)*ngrid]
		for ax := 0; ax < 3; ax++ {
			for _, sub := range strang {
				kp.baselineSweep(orb, ax, sub.parity, dt*sub.frac, theta)
			}
		}
		// Diagonal kinetic phase, trig per point (deliberately untuned).
		for i := 0; i < ngrid; i++ {
			ph := -dt * kp.diag
			//lint:allow rowexp the Table III baseline rung keeps its per-point trig on purpose
			orb[i] *= complex(math.Cos(ph), math.Sin(ph))
		}
	}
}

//mlmd:hotpath
func (kp *KinProp) baselineSweep(orb []complex128, ax, parity int, t, theta float64) {
	g := kp.G
	for ix := 0; ix < g.Nx; ix++ {
		for iy := 0; iy < g.Ny; iy++ {
			for iz := 0; iz < g.Nz; iz++ {
				var i, b int
				switch ax {
				case 0:
					i = ix
					b = g.Index(grid.Wrap(ix+1, g.Nx), iy, iz)
				case 1:
					i = iy
					b = g.Index(ix, grid.Wrap(iy+1, g.Ny), iz)
				default:
					i = iz
					b = g.Index(ix, iy, grid.Wrap(iz+1, g.Nz))
				}
				if i%2 != parity {
					continue
				}
				a := g.Index(ix, iy, iz)
				// Recompute the rotation every pair (the baseline sin).
				angle := kp.hop[ax] * t
				//lint:allow rowexp the Table III baseline rung recomputes its rotation per pair on purpose
				cth, sth := math.Cos(angle), math.Sin(angle)
				var ph complex128 = 1
				if ax == 0 && theta != 0 {
					//lint:allow rowexp the Table III baseline rung recomputes its rotation per pair on purpose
					ph = complex(math.Cos(theta), math.Sin(theta))
				}
				va, vb := orb[a], orb[b]
				c := complex(cth, 0)
				is := complex(0, -sth)
				orb[a] = c*va + is*ph*vb
				orb[b] = c*vb + is*conj(ph)*va
			}
		}
	}
}

// --- Reordered: SoA, neighbor plans, rotation hoisted out of orbital loop. ---

// propagateReordered is the scalar walk over the canonical formula: the
// independent check the kernel-backed rungs and ShardProp must equal bit for
// bit.
//
//mlmd:hotpath
func (kp *KinProp) propagateReordered(w *grid.WaveField, dt, axPot float64) {
	norb := w.Norb
	theta := kp.peierlsTheta(axPot)
	for ax := 0; ax < 3; ax++ {
		for _, sub := range strang {
			c, f, b := pairCoef(kp.hop[ax], dt*sub.frac, axisTheta(ax, theta))
			pairs := kp.pairs[ax][sub.parity]
			for p := 0; p < pairs.Len(); p++ {
				pa, pb := pairs.Pair(p)
				ra, rb := pa*norb, pb*norb
				for s := 0; s < norb; s++ {
					va, vb := w.Data[ra+s], w.Data[rb+s]
					w.Data[ra+s] = linalg.ZRot(c, f, va, vb)
					w.Data[rb+s] = linalg.ZRot(c, b, vb, va)
				}
			}
		}
	}
	rot := diagPhase(dt, kp.diag)
	for i := range w.Data {
		w.Data[i] = linalg.ZMul(w.Data[i], rot)
	}
}

// --- Blocked (+ optional parallel): whole planned pair lists go to the
// sweep-level kernels; pair sets within one parity touch disjoint rows, so
// they shard safely across goroutines. ---

// sweepChunk is the number of orbital values one pool chunk of an
// element-wise sweep (pair rotation, phase) should hold: about 50 µs of the
// vector kernels, below which waking a worker costs more than it saves. A
// sweep that fits one chunk runs inline, without a pool closure — which is
// every sweep of a DC-MESH domain, whose parallelism is across domains.
// Chunks are disjoint rows, so the grain never shows in the result.
const sweepChunk = 1 << 16

// sweepGrain is the pool grain, in rows of norb values, of a sweepChunk.
func sweepGrain(norb int) int { return max(1, sweepChunk/norb) }

//mlmd:hotpath
func (kp *KinProp) propagateBlocked(w *grid.WaveField, dt, axPot float64, parallel bool) {
	norb := w.Norb
	data := w.Data
	theta := kp.peierlsTheta(axPot)
	grain := sweepGrain(norb)
	for ax := 0; ax < 3; ax++ {
		for _, sub := range strang {
			c, f, b := pairCoef(kp.hop[ax], dt*sub.frac, axisTheta(ax, theta))
			pairs := kp.pairs[ax][sub.parity]
			if !parallel || pairs.Len() <= grain {
				linalg.ZRotPairs(data, norb, pairs, c, f, b)
				continue
			}
			par.For(pairs.Len(), grain, func(lo, hi, _ int) {
				linalg.ZRotPairs(data, norb, pairs.Slice(lo, hi), c, f, b)
			})
		}
	}
	// One row as long as the chunk applies the uniform diagonal phase.
	ph := diagPhase(dt, kp.diag)
	if !parallel || len(data) <= sweepChunk {
		rot := [1]complex128{ph}
		linalg.ZPhaseRows(data, len(data), rot[:])
		return
	}
	par.For(len(data), sweepChunk, func(lo, hi, _ int) {
		rot := [1]complex128{ph}
		linalg.ZPhaseRows(data[lo:hi], hi-lo, rot[:])
	})
}
