package shard

import (
	"fmt"
	"math"

	"mlmd/internal/allegro"
	"mlmd/internal/par"
)

// allegroGrain is the fixed chunk size of both pool-parallel phases (small:
// one atom's descriptor gather or force assembly is much heavier than an LJ
// row sum). It is also the chunk width of the energy reduction replay in
// PhaseOneFinish, so the energy bits do not depend on where phase one was
// split.
const allegroGrain = 16

// AllegroFF shards an Allegro-style neural force field with canonical-order
// force assembly, making sharded trajectories bitwise identical across grid
// shapes — the fixed-order ghost-partial gather that closes the PR 2
// cross-P drift. Each rank holds a CloneShared of the model (shared
// read-only weights) and runs the engine's two-phase path:
//
//   - PhaseOne evaluates every owned atom i against its ascending-global-id
//     neighbor row: the atomic energy E_i plus a fixed-width payload
//     [gD_i | S_i] — the backpropagated descriptor cotangent and the
//     vector-channel accumulators, exactly the center-atom inputs
//     allegro.DescriptorSpec.PairGradTaped needs — and tapes the radial
//     record (Gaussians, their derivatives, cutoff) of each of i's pairs
//     within the cutoff into the rank-local radial tape, at the pair's
//     neighbor-list slot. The descriptors are gathered on the pool and the
//     MLP half runs as blocked GEMMs over the gathered rows
//     (allegro.Model.EvalBlock), bitwise identical to per-atom
//     allegro.Model.EvalAtom inference under the float64 mode.
//   - The engine halo-exchanges the payloads (same three-axis pattern and
//     ghost slots as positions), so every rank holds the payload of every
//     atom its owned atoms interact with.
//   - PhaseTwo assembles each owned atom j's force as a single chain over
//     its neighbor row in ascending global-id order: for every neighbor i
//     within the model cutoff it adds G(i→j) (from i's payload — i may be a
//     ghost) and subtracts G(j→i) (from j's own payload). Both terms read
//     the pair's radial record from j's row of the tape: it depends on the
//     pair distance alone, so ghosts need no tape and the payload carries
//     none.
//
// Every term of that chain is computed by the one shared PairGradTaped
// routine from raw global coordinates and owner-computed payloads, and the
// chain order is the decomposition-invariant global-id order — so forces
// are bitwise identical for every grid shape, per the package determinism
// contract. (The PR 2 adapter reverse-exchanged rank-local force sums,
// whose grouping necessarily depended on the decomposition.)
//
// PhaseOne runs over a range of owned atoms: per-atom energies are stored
// in eAtom and reduced by PhaseOneFinish in fixed allegroGrain chunks over
// [0, NOwn), so the engine evaluates boundary atoms first and overlaps the
// interior evaluation with the first payload exchange axis without
// perturbing a single energy bit.
type AllegroFF struct {
	m  *allegro.Model
	cs []float64

	scratch *par.Scratch[allegroWS]
	// eAtom[i] is owned atom i's energy from the current phase one, and
	// nAcc[i] how many of its neighbor-row entries lie within the cutoff.
	eAtom []float64
	nAcc  []int32
	// rad is the radial tape: the record of owned atom i's n-th neighbor
	// within the cutoff starts at (NL.RowOffset(i)+n)·RadialLen. It is
	// sized from the neighbor list's capacity, so it grows only when the
	// list has.
	rad []float64

	p1ctx struct {
		v    *View
		aux  []float64
		base int
	}
	p2ctx struct {
		v    *View
		aux  []float64
		base int
	}
	gatherFn, phase2Fn func(lo, hi, w int)

	// The gathered descriptor block of one PhaseOne call and the
	// blocked-inference state.
	bdesc []float64
	be    allegro.BlockEval
}

type allegroWS struct {
	scr allegro.EvalScratch
}

// AllegroFactory returns a Config.NewFF producing per-rank shared-weight
// clones of model.
func AllegroFactory(model *allegro.Model) func(rank int) RankFF {
	return func(int) RankFF {
		return &AllegroFF{m: model.CloneShared(), cs: model.Spec.Centers()}
	}
}

// PartialLen implements RankFF.
func (a *AllegroFF) PartialLen() int { return 1 }

// NeedsNeighborList implements RankFF: both phases run over the engine's
// ascending-global-id neighbor rows — the order is the determinism
// contract, not just an optimization.
func (a *AllegroFF) NeedsNeighborList() bool { return true }

// AuxLen implements TwoPhaseFF: [gD | S] per atom.
func (a *AllegroFF) AuxLen() int {
	return a.m.Spec.Dim() + a.m.Spec.NSpecies*a.m.Spec.NRadial*3
}

// PhaseOne implements TwoPhaseFF: inference of owned atoms
// [lo, hi), filling their aux payloads and eAtom energies. The descriptors
// are gathered on the pool (the S accumulators land directly in the
// payload) and the MLPs run as blocked GEMMs; each atom's results do not
// depend on which rows share its block, so the engine's split point never
// shows in the trajectory.
func (a *AllegroFF) PhaseOne(v *View, aux []float64, lo, hi int) {
	if v.Cutoff < a.m.Spec.Cutoff {
		panic(fmt.Sprintf("shard: engine cutoff %g is smaller than the Allegro model cutoff %g — the halo would miss interacting neighbors",
			v.Cutoff, a.m.Spec.Cutoff))
	}
	n := hi - lo
	if n <= 0 {
		return
	}
	a.eAtom = resizeF64(a.eAtom, v.NOwn)
	if cap(a.nAcc) < v.NOwn {
		a.nAcc = make([]int32, v.NOwn)
	}
	a.nAcc = a.nAcc[:v.NOwn]
	// The list does not change between the PhaseOne calls of one step,
	// so only the first non-empty one can grow the tape. A slot of tape is
	// RadialLen float64s against the list's one int32, so the tape keeps a
	// quarter over the list's capacity: a rebuild that adds a few percent
	// of pairs may grow the list, but does not re-make the tape.
	if rl := a.m.Spec.RadialLen(); len(a.rad) < v.NL.NumPairs()*rl {
		a.rad = make([]float64, v.NL.PairCap()*rl*5/4)
	}
	a.ensureClosures()
	a.p1ctx.v = v
	a.p1ctx.aux = aux
	a.p1ctx.base = lo
	dim := a.m.Spec.Dim()
	w := a.AuxLen()
	a.bdesc = resizeF64(a.bdesc, n*dim)
	par.For(n, allegroGrain, a.gatherFn)
	a.m.EvalBlock(v.Type, lo, n, a.bdesc, &a.be, a.eAtom[lo:hi:hi], aux[lo*w:], w)
}

// PhaseOneFinish implements TwoPhaseFF: the energy reduction over all
// owned atoms in fixed allegroGrain chunks — ascending atoms within a
// chunk, ascending chunks — so the sum's bits are independent of how
// PhaseOne calls covered [0, NOwn).
func (a *AllegroFF) PhaseOneFinish(v *View, partial []float64) {
	n := v.NOwn
	var e float64
	for lo := 0; lo < n; lo += allegroGrain {
		hi := lo + allegroGrain
		if hi > n {
			hi = n
		}
		var c float64
		for i := lo; i < hi; i++ {
			c += a.eAtom[i]
		}
		e += c
	}
	partial[0] += e
}

// PhaseTwo implements TwoPhaseFF: canonical-order force assembly of owned
// atoms [lo, hi) from the exchanged payloads.
func (a *AllegroFF) PhaseTwo(v *View, aux []float64, lo, hi int) {
	if hi-lo <= 0 {
		return
	}
	a.p2ctx.v = v
	a.p2ctx.aux = aux
	a.p2ctx.base = lo
	a.ensureClosures()
	par.For(hi-lo, allegroGrain, a.phase2Fn)
}

// Energy implements RankFF.
func (a *AllegroFF) Energy(_ *View, total []float64) float64 { return total[0] }

func (a *AllegroFF) ensureClosures() {
	if a.gatherFn != nil {
		return
	}
	if a.scratch == nil {
		a.scratch = par.NewScratch(func() *allegroWS { return &allegroWS{} })
	}
	dim := a.m.Spec.Dim()
	w := a.AuxLen()
	rl := a.m.Spec.RadialLen()
	a.gatherFn = func(lo, hi, worker int) {
		v := a.p1ctx.v
		aux := a.p1ctx.aux
		base := a.p1ctx.base
		ws := a.scratch.Get(worker)
		for i := base + lo; i < base+hi; i++ {
			row := aux[i*w : (i+1)*w]
			r := i - base
			a.nAcc[i] = int32(a.m.GatherAtom(v.Sys, i, v.NL.Row(i), a.cs, &ws.scr, a.bdesc[r*dim:(r+1)*dim], row[dim:], a.rad[v.NL.RowOffset(i)*rl:]))
		}
	}
	a.phase2Fn = func(lo, hi, _ int) {
		v := a.p2ctx.v
		aux := a.p2ctx.aux
		base := a.p2ctx.base
		spec := a.m.Spec
		rc := spec.Cutoff
		x := v.X
		px, py, pz := v.Periods()
		for j := base + lo; j < base+hi; j++ {
			rowJ := aux[j*w : (j+1)*w]
			xj, yj, zj := x[3*j], x[3*j+1], x[3*j+2]
			rad := a.rad[v.NL.RowOffset(j)*rl:]
			n := 0                 // j's neighbors within the cutoff so far
			var ax, ay, az float64 // dE/dx_j chain, ascending gid of i
			for _, i32 := range v.NL.Row(j) {
				i := int(i32)
				// Geometry exactly as GatherAtom builds each center's
				// environment: MinImage(neighbor, center). The two
				// displacements are bitwise negations, so the membership
				// test (r < cutoff) agrees with both owners' phase-one
				// environments, and the n-th accepted neighbor here is the
				// n-th record of j's tape row.
				// center i, neighbor j
				dxj, dyj, dzj := px.MinImage(xj-x[3*i]), py.MinImage(yj-x[3*i+1]), pz.MinImage(zj-x[3*i+2])
				r := math.Sqrt(dxj*dxj + dyj*dyj + dzj*dzj)
				if r >= rc || r == 0 {
					continue
				}
				t := rad[n*rl : (n+1)*rl]
				n++
				rowI := aux[i*w : (i+1)*w]
				// + G(i→j): atom i's energy moved by x_j.
				gx, gy, gz := spec.PairGradTaped(v.Type[j], rowI[:dim], rowI[dim:], t, dxj, dyj, dzj, r)
				ax += gx
				ay += gy
				az += gz
				// − G(j→i): atom j's own energy moved by x_j (Newton's
				// third law through the descriptor chain rule).
				// center j, neighbor i
				dxi, dyi, dzi := px.MinImage(x[3*i]-xj), py.MinImage(x[3*i+1]-yj), pz.MinImage(x[3*i+2]-zj)
				gx, gy, gz = spec.PairGradTaped(v.Type[i], rowJ[:dim], rowJ[dim:], t, dxi, dyi, dzi, r)
				ax -= gx
				ay -= gy
				az -= gz
			}
			if n != int(a.nAcc[j]) {
				panic(fmt.Sprintf("shard: Allegro atom %d accepted %d neighbors in phase two but taped %d in phase one — the radial tape is misaligned",
					v.ID[j], n, a.nAcc[j]))
			}
			v.F[3*j] = -ax
			v.F[3*j+1] = -ay
			v.F[3*j+2] = -az
		}
	}
}
