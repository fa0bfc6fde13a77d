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
	// within the cutoff starts at (NL.RowOffset(i)+n)·RadialLen, and nbr
	// holds that neighbor's local index at slot NL.RowOffset(i)+n. Both are
	// sized from the neighbor list's capacity, so they grow only when the
	// list has.
	rad []float64
	nbr []int32

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
	// Phase two's pairs of one row: their distances and the operands of the
	// two PairGradRows calls, G(i→j) (plus) and G(j→i) (minus).
	r           []float64
	plus, minus pairRun
}

// pairRun is one PairGradRows call's operands: per pair, where the center's
// payload rows start in aux (advanced by the neighbor species' block), the
// displacement neighbor − center, and the returned terms.
type pairRun struct {
	gOff, sOff             []int32
	dx, dy, dz, gx, gy, gz []float64
}

func (pr *pairRun) reset() {
	pr.gOff, pr.sOff = pr.gOff[:0], pr.sOff[:0]
	pr.dx, pr.dy, pr.dz = pr.dx[:0], pr.dy[:0], pr.dz[:0]
}

func (pr *pairRun) add(gOff, sOff int, dx, dy, dz float64) {
	pr.gOff = append(pr.gOff, int32(gOff))
	pr.sOff = append(pr.sOff, int32(sOff))
	pr.dx = append(pr.dx, dx)
	pr.dy = append(pr.dy, dy)
	pr.dz = append(pr.dz, dz)
}

// eval runs PairGradRows over the run, center payloads in aux, the records in
// tape and the distances in r.
func (pr *pairRun) eval(spec allegro.DescriptorSpec, aux, tape, r []float64) {
	n := len(r)
	pr.gx, pr.gy, pr.gz = resizeF64(pr.gx, n), resizeF64(pr.gy, n), resizeF64(pr.gz, n)
	spec.PairGradRows(pr.gx, pr.gy, pr.gz, aux, aux, pr.gOff, pr.sOff, tape, pr.dx, pr.dy, pr.dz, r)
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
		a.nbr = make([]int32, len(a.rad)/rl)
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
	if len(aux) > math.MaxInt32 {
		panic("shard: Allegro payload array too long for PairGradRows' int32 offsets")
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
			off := v.NL.RowOffset(i)
			cand := v.NL.Row(i)
			n := a.m.GatherAtom(v.Sys, i, cand, a.cs, &ws.scr, a.bdesc[r*dim:(r+1)*dim], row[dim:], a.rad[off*rl:])
			a.nAcc[i] = int32(n)
			nbr := a.nbr[off : off+len(cand)]
			for q, j := range ws.scr.Neighbors() {
				nbr[q] = int32(j)
			}
			if n < len(nbr) {
				nbr[n] = -1 // a count past the accepted ones reads this
			}
		}
	}
	a.phase2Fn = func(lo, hi, worker int) {
		v := a.p2ctx.v
		aux := a.p2ctx.aux
		base := a.p2ctx.base
		spec := a.m.Spec
		rc := spec.Cutoff
		nr := spec.NRadial
		x := v.X
		px, py, pz := v.Periods()
		ws := a.scratch.Get(worker)
		for j := base + lo; j < base+hi; j++ {
			ws.r = ws.r[:0]
			ws.plus.reset()
			ws.minus.reset()
			xj, yj, zj := x[3*j], x[3*j+1], x[3*j+2]
			tj := v.Type[j]
			off := v.NL.RowOffset(j)
			n := int(a.nAcc[j])
			// The neighbors phase one accepted, in row order: the n-th is
			// the n-th record of j's tape row. Geometry exactly as GatherAtom
			// builds each center's environment: MinImage(neighbor, center);
			// the two displacements are bitwise negations, so r is the one
			// both owners' phase-one environments hold, and lies within the
			// cutoff — unless the count is off (the slot past the accepted
			// ones holds −1), which fails here instead of assembling from
			// another pair's record.
			if n > len(v.NL.Row(j)) {
				panic(fmt.Sprintf("shard: Allegro atom %d taped %d neighbors of a row of %d", v.ID[j], n, len(v.NL.Row(j))))
			}
			for _, i32 := range a.nbr[off : off+n] {
				i := int(i32)
				if i < 0 {
					panic(fmt.Sprintf("shard: Allegro atom %d has a tape count past its accepted neighbors — the radial tape is misaligned", v.ID[j]))
				}
				// center i, neighbor j
				dxj, dyj, dzj := px.MinImage(xj-x[3*i]), py.MinImage(yj-x[3*i+1]), pz.MinImage(zj-x[3*i+2])
				r := math.Sqrt(dxj*dxj + dyj*dyj + dzj*dzj)
				if !(r < rc) || r == 0 {
					panic(fmt.Sprintf("shard: Allegro atom %d reads a taped neighbor at r = %g, outside the cutoff %g — the radial tape is misaligned", v.ID[j], r, rc))
				}
				ws.r = append(ws.r, r)
				// + G(i→j): atom i's energy moved by x_j, from i's payload.
				ws.plus.add(i*w+2*nr*tj, i*w+dim+3*nr*tj, dxj, dyj, dzj)
				// − G(j→i): atom j's own energy moved by x_j (Newton's
				// third law through the descriptor chain rule).
				// center j, neighbor i
				ti := v.Type[i]
				dxi, dyi, dzi := px.MinImage(x[3*i]-xj), py.MinImage(x[3*i+1]-yj), pz.MinImage(x[3*i+2]-zj)
				ws.minus.add(j*w+2*nr*ti, j*w+dim+3*nr*ti, dxi, dyi, dzi)
			}
			// Both terms of a pair read its record from j's row of the tape.
			tape := a.rad[off*rl : (off+n)*rl]
			ws.plus.eval(spec, aux, tape, ws.r)
			ws.minus.eval(spec, aux, tape, ws.r)
			// dE/dx_j chain, ascending gid of i.
			var ax, ay, az float64
			p, m := &ws.plus, &ws.minus
			for q := 0; q < n; q++ {
				ax += p.gx[q]
				ay += p.gy[q]
				az += p.gz[q]
				ax -= m.gx[q]
				ay -= m.gy[q]
				az -= m.gz[q]
			}
			v.F[3*j] = -ax
			v.F[3*j+1] = -ay
			v.F[3*j+2] = -az
		}
	}
}
