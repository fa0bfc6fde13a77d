package allegro

import (
	"fmt"

	"mlmd/internal/md"
	"mlmd/internal/nn"
	"mlmd/internal/par"
)

// EvalMode selects a Model's inference arithmetic.
type EvalMode int

const (
	// EvalBatched, the zero value, gathers descriptor rows for a block of
	// atoms into a matrix and drives the per-species MLPs with blocked
	// GEMM64 passes. Each row's energy and cotangent are bitwise identical
	// to per-atom EvalAtom inference: the GEMM accumulates each output over
	// the reduction index in the per-row order.
	EvalBatched EvalMode = iota
	// EvalBatchedMixed is EvalBatched with float32 activations under the
	// Model's MixedMode (precision.GEMMMixed) — the measurable
	// mixed-precision switch. It is NOT bitwise-comparable to the float64
	// path and is excluded from the 0-alloc steady-state contract.
	EvalBatchedMixed
)

// String implements fmt.Stringer.
func (e EvalMode) String() string {
	switch e {
	case EvalBatched:
		return "batched"
	case EvalBatchedMixed:
		return "batched-mixed"
	}
	return fmt.Sprintf("EvalMode(%d)", int(e))
}

// DefaultBatchBlock is the BlockSize the nn.allegro benchmark workload
// runs at. NewModel leaves BlockSize at 0: the whole system is one block.
const DefaultBatchBlock = 256

// BlockEval is the reusable scratch of the blocked per-species inference
// driver (Model.EvalBlock): species index lists, the per-species gather
// block, the blocked tapes, and the all-ones cotangent column. Buffers are
// sized on first use, so steady-state blocked inference allocates nothing
// (except under EvalBatchedMixed — see that mode's contract).
type BlockEval struct {
	idx   [][]int
	gd    []float64
	x     []float64 // float64 gather staging of the mixed path
	ones  []float64
	tape  nn.BatchTape
	mixed nn.MixedBatch
}

// EvalBlock runs blocked per-species MLP inference over n gathered
// descriptor rows: row r belongs to atom base+r (species types[base+r]) and
// occupies desc[r*Dim() : (r+1)*Dim()]. It fills eAtom[r] with the atomic
// energy (network output plus the species shift — exactly EvalAtom's return
// value) and the cotangent row gdRows[r*gdStride : r*gdStride+Dim()] with
// dE/dD. Rows are grouped by species in ascending row order and split into
// chunks of at most BlockSize rows (0 = one chunk); per-row results are
// independent of the grouping, and under EvalBatched they are bitwise
// identical to EvalAtom's.
//
//mlmd:hotpath
func (m *Model) EvalBlock(types []int, base, n int, desc []float64, be *BlockEval, eAtom, gdRows []float64, gdStride int) {
	dim := m.Spec.Dim()
	nsp := m.Spec.NSpecies
	if len(be.idx) != nsp {
		be.idx = make([][]int, nsp)
	}
	for sp := range be.idx {
		be.idx[sp] = be.idx[sp][:0]
	}
	for r := 0; r < n; r++ {
		sp := types[base+r]
		be.idx[sp] = append(be.idx[sp], r)
	}
	mixed := m.Mode == EvalBatchedMixed
	for sp := 0; sp < nsp; sp++ {
		list := be.idx[sp]
		if len(list) == 0 {
			continue
		}
		mlp := m.Nets[sp]
		shift := m.PerSpeciesShift[sp]
		chunk := m.BlockSize
		if chunk <= 0 || chunk > len(list) {
			chunk = len(list)
		}
		for c0 := 0; c0 < len(list); c0 += chunk {
			c1 := c0 + chunk
			if c1 > len(list) {
				c1 = len(list)
			}
			rows := list[c0:c1]
			cn := len(rows)
			if cap(be.gd) < cn*dim {
				be.gd = make([]float64, cn*dim)
			}
			if mixed {
				if cap(be.x) < cn*dim {
					be.x = make([]float64, cn*dim)
				}
				x := be.x[:cn*dim]
				for q, r := range rows {
					copy(x[q*dim:(q+1)*dim], desc[r*dim:(r+1)*dim])
				}
				mlp.ForwardBatchMixed(m.MixedMode, x, cn, &be.mixed)
				mlp.BackwardBatchMixed(m.MixedMode, &be.mixed, be.gd[:cn*dim])
				for q, r := range rows {
					eAtom[r] = be.mixed.Out(q) + shift
					copy(gdRows[r*gdStride:r*gdStride+dim], be.gd[q*dim:(q+1)*dim])
				}
				continue
			}
			x := mlp.BatchInput(&be.tape, cn)
			for q, r := range rows {
				copy(x[q*dim:(q+1)*dim], desc[r*dim:(r+1)*dim])
			}
			mlp.ForwardBatch(&be.tape)
			if cap(be.ones) < cn {
				be.ones = make([]float64, cn)
				for i := range be.ones {
					be.ones[i] = 1
				}
			}
			mlp.BackwardBatch(&be.tape, be.ones[:cn], be.gd[:cn*dim])
			for q, r := range rows {
				eAtom[r] = be.tape.Out(q) + shift
				copy(gdRows[r*gdStride:r*gdStride+dim], be.gd[q*dim:(q+1)*dim])
			}
		}
	}
}

// GatherAtom is the descriptor half of EvalAtom: it builds atom i's
// environment from the candidate neighbor list cand (same cutoff filter and
// order as EvalAtom) and fills desc (length Dim), vec (length
// NSpecies·NRadial·3) and the radial tape rad, leaving the MLP to a later
// EvalBlock over many gathered rows. cs must be Spec.Centers(). rad must
// hold len(cand)·Spec.RadialLen() values; the record of the n-th candidate
// within the cutoff lands at rad[n·RadialLen():], and the return value is
// how many there were.
//
//mlmd:hotpath
func (m *Model) GatherAtom(sys *md.System, i int, cand []int32, cs []float64, scr *EvalScratch, desc, vec, rad []float64) int {
	buildEnv(sys, i, cand, m.Spec.Cutoff, &scr.env)
	m.Spec.descriptorInto(sys, &scr.env, desc, cs, vec, rad)
	return len(scr.env.j)
}

// batchState is one part's scratch of the batched force path: the gathered
// descriptor/vector rows and flattened environments of the part's atoms
// with their radial tape (envRad, RadialLen values per environment slot),
// the blocked-inference scratch, and the private dE/dx accumulator merged
// after each block.
type batchState struct {
	env                 neighborEnv // single-atom staging for buildEnv
	desc, vec           []float64
	envJ                []int
	envDx, envDy, envDz []float64
	envR                []float64
	envRad              []float64
	envOff              []int32
	cs                  []float64
	eAtom               []float64
	gD                  []float64
	dEdx                []float64
	pairs               pairScratch
	be                  BlockEval
	e                   float64
	active              bool
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// forceBlockBatched evaluates atoms [lo,hi) on the worker pool, split
// into one contiguous range per part (parts = pool size). Each part
// gathers its atoms' environments, descriptor rows and radial tape
// (pass 1), runs the per-species blocked MLPs over the whole part (pass 2,
// EvalBlock), and then sums the energies and scatters the PairGradTaped
// terms from the tape in ascending atom order (pass 3). The scatter
// reaches neighbors, so each part accumulates dE/dx into its own scratch
// slot, and the slots merge into sys.F (−dE/dx) in part order afterwards.
// Keying the slot by the static part index — not the scheduling-dependent
// worker id — makes the result deterministic for a fixed worker count.
//
//mlmd:hotpath
func (m *Model) forceBlockBatched(sys *md.System, lo, hi int) float64 {
	if m.bscratch == nil {
		m.bscratch = par.NewScratch(func() *batchState { return &batchState{} })
		m.batchFn = func(part, _, _ int) {
			sys := m.bctx.sys
			base := m.bctx.base
			flo := part * m.bctx.span / m.bctx.parts
			fhi := (part + 1) * m.bctx.span / m.bctx.parts
			n := fhi - flo
			ws := m.bscratch.Get(part)
			dim := m.Spec.Dim()
			vlen := m.Spec.NSpecies * m.Spec.NRadial * 3
			rl := m.Spec.RadialLen()
			if len(ws.cs) == 0 {
				ws.cs = m.Spec.centers()
			}
			ws.desc = growF64(ws.desc, n*dim)
			ws.vec = growF64(ws.vec, n*vlen)
			if cap(ws.envOff) < n+1 {
				ws.envOff = make([]int32, n+1)
			}
			ws.envOff = ws.envOff[:n+1]
			ws.envJ = ws.envJ[:0]
			ws.envDx, ws.envDy = ws.envDx[:0], ws.envDy[:0]
			ws.envDz, ws.envR = ws.envDz[:0], ws.envR[:0]
			// The part's candidate count bounds its environment slots.
			ws.envRad = growF64(ws.envRad, len(m.nl.Rows(base+flo, base+fhi))*rl)
			for r := 0; r < n; r++ {
				i := base + flo + r
				ws.envOff[r] = int32(len(ws.envJ))
				buildEnv(sys, i, m.nl.Row(i), m.Spec.Cutoff, &ws.env)
				ws.envJ = append(ws.envJ, ws.env.j...)
				ws.envDx = append(ws.envDx, ws.env.dx...)
				ws.envDy = append(ws.envDy, ws.env.dy...)
				ws.envDz = append(ws.envDz, ws.env.dz...)
				ws.envR = append(ws.envR, ws.env.r...)
				m.Spec.descriptorInto(sys, &ws.env, ws.desc[r*dim:(r+1)*dim], ws.cs, ws.vec[r*vlen:(r+1)*vlen], ws.envRad[int(ws.envOff[r])*rl:])
			}
			ws.envOff[n] = int32(len(ws.envJ))
			ws.eAtom = growF64(ws.eAtom, n)
			ws.gD = growF64(ws.gD, n*dim)
			m.EvalBlock(sys.Type, base+flo, n, ws.desc, &ws.be, ws.eAtom, ws.gD, dim)
			if len(ws.dEdx) != 3*sys.N {
				ws.dEdx = make([]float64, 3*sys.N)
			}
			for k := range ws.dEdx {
				ws.dEdx[k] = 0
			}
			ws.e = 0
			ws.active = true
			for r := 0; r < n; r++ {
				i := base + flo + r
				ws.e += ws.eAtom[r]
				o0, o1 := ws.envOff[r], ws.envOff[r+1]
				envView := neighborEnv{
					j:  ws.envJ[o0:o1],
					dx: ws.envDx[o0:o1], dy: ws.envDy[o0:o1], dz: ws.envDz[o0:o1],
					r: ws.envR[o0:o1],
				}
				m.Spec.descriptorGradPre(sys, envView, i, ws.gD[r*dim:(r+1)*dim], ws.dEdx, ws.vec[r*vlen:(r+1)*vlen], ws.envRad[int(o0)*rl:int(o1)*rl], &ws.pairs)
			}
		}
	}
	m.bscratch.Each(func(_ int, ws *batchState) { ws.active = false })
	parts := par.Workers()
	if parts > hi-lo {
		parts = hi - lo
	}
	m.bctx.sys = sys
	m.bctx.base = lo
	m.bctx.span = hi - lo
	m.bctx.parts = parts
	par.For(parts, 1, m.batchFn)
	var e float64
	m.bscratch.Each(func(_ int, ws *batchState) {
		if !ws.active {
			return
		}
		e += ws.e
		for k, v := range ws.dEdx {
			sys.F[k] -= v
		}
	})
	return e
}
