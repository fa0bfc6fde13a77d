package allegro

import (
	"fmt"
	"math"

	"mlmd/internal/md"
	"mlmd/internal/par"
)

// phaseGrain is the fixed chunk size of both pool-parallel phases (small:
// one atom's descriptor gather or force assembly is much heavier than an LJ
// row sum). It is also the chunk width of Energy's reduction, so the energy
// bits do not depend on where phase one was split.
const phaseGrain = 16

// TwoPhase is the one force assembly of a Model, in canonical order: the
// global ComputeForces runs it over every atom of a system, and the sharded
// engine's Allegro adapter over the owned atoms of each rank. Both phases
// run over a neighbor list whose rows are in ascending global-id order:
//
//   - PhaseOne evaluates every atom i of a range against its row: the
//     atomic energy E_i plus a fixed-width payload [gD_i | S_i] — the
//     backpropagated descriptor cotangent and the vector-channel
//     accumulators, exactly the center-atom inputs PairGradTaped needs — and
//     tapes the radial record (Gaussians, their derivatives, cutoff) of each
//     of i's pairs within the cutoff into the radial tape, at the pair's
//     neighbor-list slot. The descriptors are gathered on the pool and the
//     MLP half runs as blocked GEMMs over the gathered rows (evalBlock),
//     bitwise identical to per-atom EvalAtom inference under the float64
//     mode.
//   - Between the phases every atom an assembled atom interacts with must
//     hold its payload: the global path has them all; the engine
//     halo-exchanges them into its ghost rows.
//   - PhaseTwo assembles each atom j's force as a single chain over its row
//     in ascending global-id order: for every neighbor i within the model
//     cutoff it adds G(i→j) (from i's payload — i may be a ghost) and
//     subtracts G(j→i) (from j's own payload). Both terms read the pair's
//     radial record from j's row of the tape: it depends on the pair
//     distance alone, so ghosts need no tape and the payload carries none.
//
// Every term of that chain comes from the one shared pair-term routine
// (pairGradRows, equal to PairGradTaped) from raw global coordinates and
// owner-computed payloads, and the chain order is the
// decomposition-invariant global-id order — so the forces are the same bits
// at every worker count, BlockSize, and rank grid. Energy reduces the
// per-atom energies in fixed phaseGrain chunks, so an engine may split phase
// one (boundary atoms first, the interior while their payloads are in
// flight) without moving an energy bit.
//
// A TwoPhase only reads its Model, so several — one per rank — may share
// one; a TwoPhase itself is not safe for concurrent use.
type TwoPhase struct {
	m  *Model
	cs []float64

	scratch *par.Scratch[phaseWS]
	// eAtom[i] is atom i's energy from the current phase one, and
	// Accepted[i] how many of its neighbor-row entries lie within the
	// cutoff: phase two reads that many records of i's tape row.
	eAtom    []float64
	Accepted []int32
	// rad is the radial tape: the record of atom i's n-th neighbor within
	// the cutoff starts at (nl.RowOffset(i)+n)·RadialLen, and nbr holds
	// that neighbor's index at slot nl.RowOffset(i)+n. Both are sized from
	// the neighbor list's capacity, so they grow only when the list has.
	rad []float64
	nbr []int32

	// The operands of the running phase, read by its pool workers.
	ctx struct {
		sys         *md.System
		nl          *md.NeighborList
		aux         []float64
		base        int
		span, parts int
	}
	gatherFn, inferFn, assembleFn func(lo, hi, w int)

	// The gathered descriptor block of one PhaseOne call, and the
	// blocked-inference state of each part of it. A part keeps its state
	// whichever worker runs it, so the tapes reach their size in the first
	// step and steady steps allocate nothing.
	bdesc []float64
	be    []blockEval
}

type phaseWS struct {
	scr EvalScratch
	// Phase two's pairs of one row: their distances and the operands of the
	// two pairGradRows calls, G(i→j) (plus) and G(j→i) (minus).
	r           []float64
	plus, minus pairRun
}

// pairRun is one pairGradRows call's operands: per pair, where the center's
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

// eval runs pairGradRows over the run, center payloads in aux, the records in
// tape and the distances in r.
func (pr *pairRun) eval(spec DescriptorSpec, aux, tape, r []float64) {
	n := len(r)
	pr.gx, pr.gy, pr.gz = growF64(pr.gx, n), growF64(pr.gy, n), growF64(pr.gz, n)
	spec.pairGradRows(pr.gx, pr.gy, pr.gz, aux, aux, pr.gOff, pr.sOff, tape, pr.dx, pr.dy, pr.dz, r)
}

// NewTwoPhase returns a two-phase assembly of m's forces. It shares m's
// weights read-only and holds its own tape and inference scratch.
func (m *Model) NewTwoPhase() *TwoPhase {
	t := &TwoPhase{m: m, cs: m.Spec.centers()}
	t.scratch = par.NewScratch(func() *phaseWS { return &phaseWS{} })
	t.gatherFn = t.gather
	t.inferFn = t.infer
	t.assembleFn = t.assemble
	return t
}

// AuxLen returns the payload width per atom: [gD | S].
func (t *TwoPhase) AuxLen() int {
	return t.m.Spec.Dim() + t.m.Spec.NSpecies*t.m.Spec.NRadial*3
}

// PhaseOne runs inference of atoms [lo, hi) of sys against their rows of
// nl, filling their payloads aux[i·AuxLen():(i+1)·AuxLen()], their energies
// and the tape. The descriptors are gathered on the pool (the S
// accumulators land directly in the payload) and the MLPs run as blocked
// GEMMs; each atom's results do not depend on which rows share its block,
// so neither BlockSize nor a caller's split point shows in a bit.
//
//mlmd:hotpath
func (t *TwoPhase) PhaseOne(sys *md.System, nl *md.NeighborList, aux []float64, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	t.eAtom = growF64(t.eAtom, sys.N)
	if cap(t.Accepted) < sys.N {
		t.Accepted = make([]int32, sys.N)
	}
	t.Accepted = t.Accepted[:sys.N]
	// The list does not change between the PhaseOne calls of one step,
	// so only the first non-empty one can grow the tape. A slot of tape is
	// RadialLen float64s against the list's one int32, so the tape keeps a
	// quarter over the list's capacity: a rebuild that adds a few percent
	// of pairs may grow the list, but does not re-make the tape.
	if rl := t.m.Spec.RadialLen(); len(t.rad) < nl.NumPairs()*rl {
		t.rad = make([]float64, nl.PairCap()*rl*5/4)
		t.nbr = make([]int32, len(t.rad)/rl)
	}
	t.ctx.sys, t.ctx.nl, t.ctx.aux, t.ctx.base = sys, nl, aux, lo
	t.bdesc = growF64(t.bdesc, n*t.m.Spec.Dim())
	par.For(n, phaseGrain, t.gatherFn)
	// The MLPs run as one evalBlock per contiguous part of the range, the
	// parts side by side on the pool: one caller's GEMMs over a species'
	// chunk are too short to keep the pool busy alone. A part holds at
	// least BlockSize atoms, so a range already shared out among
	// concurrent callers — an engine's ranks — stays whole GEMM chunks.
	t.ctx.span = n
	t.ctx.parts = min(par.Workers(), (n+phaseGrain-1)/phaseGrain)
	if b := t.m.BlockSize; b > 0 {
		t.ctx.parts = min(t.ctx.parts, max(1, n/b))
	}
	if len(t.be) < t.ctx.parts {
		t.be = make([]blockEval, t.ctx.parts)
	}
	par.For(t.ctx.parts, 1, t.inferFn)
}

// infer is phase one's blocked-MLP pool body: part p of the gathered rows.
//
//mlmd:hotpath
func (t *TwoPhase) infer(p, _, _ int) {
	sys, aux, base := t.ctx.sys, t.ctx.aux, t.ctx.base
	lo := base + p*t.ctx.span/t.ctx.parts
	hi := base + (p+1)*t.ctx.span/t.ctx.parts
	dim := t.m.Spec.Dim()
	w := t.AuxLen()
	t.m.evalBlock(sys.Type, lo, hi-lo, t.bdesc[(lo-base)*dim:], &t.be[p], t.eAtom[lo:hi:hi], aux[lo*w:], w)
}

// gather is phase one's pool body: the descriptor rows of atoms
// base+[lo, hi), their S accumulators into the payload, and their tape
// records and accepted neighbors.
//
//mlmd:hotpath
func (t *TwoPhase) gather(lo, hi, worker int) {
	sys, nl, aux, base := t.ctx.sys, t.ctx.nl, t.ctx.aux, t.ctx.base
	dim := t.m.Spec.Dim()
	w := t.AuxLen()
	rl := t.m.Spec.RadialLen()
	ws := t.scratch.Get(worker)
	for i := base + lo; i < base+hi; i++ {
		row := aux[i*w : (i+1)*w]
		r := i - base
		off := nl.RowOffset(i)
		cand := nl.Row(i)
		n := t.m.gatherAtom(sys, i, cand, t.cs, &ws.scr, t.bdesc[r*dim:(r+1)*dim], row[dim:], t.rad[off*rl:])
		t.Accepted[i] = int32(n)
		nbr := t.nbr[off : off+len(cand)]
		for q, j := range ws.scr.env.j {
			nbr[q] = int32(j)
		}
		if n < len(nbr) {
			nbr[n] = -1 // a count past the accepted ones reads this
		}
	}
}

// Energy returns the sum of atoms [0, n)'s energies from phase one, in
// fixed phaseGrain chunks — ascending atoms within a chunk, ascending
// chunks — so the sum's bits are independent of how PhaseOne calls covered
// the range.
//
//mlmd:hotpath
func (t *TwoPhase) Energy(n int) float64 {
	var e float64
	for lo := 0; lo < n; lo += phaseGrain {
		hi := lo + phaseGrain
		if hi > n {
			hi = n
		}
		var c float64
		for i := lo; i < hi; i++ {
			c += t.eAtom[i]
		}
		e += c
	}
	return e
}

// PhaseTwo sets sys.F of atoms [lo, hi) to −dE/dx, assembled in canonical
// order from the payloads in aux (every neighbor's must be current) and the
// tape of the last PhaseOne over the same list.
//
//mlmd:hotpath
func (t *TwoPhase) PhaseTwo(sys *md.System, nl *md.NeighborList, aux []float64, lo, hi int) {
	if hi-lo <= 0 {
		return
	}
	if len(aux) > math.MaxInt32 {
		panic("allegro: payload array too long for pairGradRows' int32 offsets")
	}
	t.ctx.sys, t.ctx.nl, t.ctx.aux, t.ctx.base = sys, nl, aux, lo
	par.For(hi-lo, phaseGrain, t.assembleFn)
}

// assemble is phase two's pool body over atoms base+[lo, hi).
//
//mlmd:hotpath
func (t *TwoPhase) assemble(lo, hi, worker int) {
	sys, nl, aux, base := t.ctx.sys, t.ctx.nl, t.ctx.aux, t.ctx.base
	spec := t.m.Spec
	dim := spec.Dim()
	w := t.AuxLen()
	rl := spec.RadialLen()
	rc := spec.Cutoff
	nr := spec.NRadial
	x := sys.X
	px, py, pz := sys.Periods()
	ws := t.scratch.Get(worker)
	for j := base + lo; j < base+hi; j++ {
		ws.r = ws.r[:0]
		ws.plus.reset()
		ws.minus.reset()
		xj, yj, zj := x[3*j], x[3*j+1], x[3*j+2]
		tj := sys.Type[j]
		off := nl.RowOffset(j)
		n := int(t.Accepted[j])
		// The neighbors phase one accepted, in row order: the n-th is
		// the n-th record of j's tape row. Geometry exactly as gatherAtom
		// builds each center's environment: MinImage(neighbor, center);
		// the two displacements are bitwise negations, so r is the one
		// both owners' phase-one environments hold, and lies within the
		// cutoff — unless the count is off (the slot past the accepted
		// ones holds −1), which fails here instead of assembling from
		// another pair's record.
		if n > len(nl.Row(j)) {
			panic(fmt.Sprintf("allegro: atom %d taped %d neighbors of a row of %d", j, n, len(nl.Row(j))))
		}
		for _, i32 := range t.nbr[off : off+n] {
			i := int(i32)
			if i < 0 {
				panic(fmt.Sprintf("allegro: atom %d has a tape count past its accepted neighbors — the radial tape is misaligned", j))
			}
			// center i, neighbor j
			dxj, dyj, dzj := px.MinImage(xj-x[3*i]), py.MinImage(yj-x[3*i+1]), pz.MinImage(zj-x[3*i+2])
			r := math.Sqrt(dxj*dxj + dyj*dyj + dzj*dzj)
			if !(r < rc) || r == 0 {
				panic(fmt.Sprintf("allegro: atom %d reads a taped neighbor at r = %g, outside the cutoff %g — the radial tape is misaligned", j, r, rc))
			}
			ws.r = append(ws.r, r)
			// + G(i→j): atom i's energy moved by x_j, from i's payload.
			ws.plus.add(i*w+2*nr*tj, i*w+dim+3*nr*tj, dxj, dyj, dzj)
			// − G(j→i): atom j's own energy moved by x_j (Newton's
			// third law through the descriptor chain rule).
			// center j, neighbor i
			ti := sys.Type[i]
			dxi, dyi, dzi := px.MinImage(x[3*i]-xj), py.MinImage(x[3*i+1]-yj), pz.MinImage(x[3*i+2]-zj)
			ws.minus.add(j*w+2*nr*ti, j*w+dim+3*nr*ti, dxi, dyi, dzi)
		}
		// Both terms of a pair read its record from j's row of the tape.
		tape := t.rad[off*rl : (off+n)*rl]
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
		sys.F[3*j] = -ax
		sys.F[3*j+1] = -ay
		sys.F[3*j+2] = -az
	}
}
