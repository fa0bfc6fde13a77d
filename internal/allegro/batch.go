package allegro

import (
	"fmt"

	"mlmd/internal/md"
	"mlmd/internal/nn"
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
// runs at. NewModel leaves BlockSize at 0: one GEMM chunk per species.
const DefaultBatchBlock = 256

// blockEval is the reusable scratch of the blocked per-species inference
// driver (Model.evalBlock): species index lists, the per-species gather
// block, the blocked tapes, and the all-ones cotangent column. Buffers are
// sized on first use, so steady-state blocked inference allocates nothing
// (except under EvalBatchedMixed — see that mode's contract).
type blockEval struct {
	idx   [][]int
	gd    []float64
	x     []float64 // float64 gather staging of the mixed path
	ones  []float64
	tape  nn.BatchTape
	mixed nn.MixedBatch
}

// evalBlock runs blocked per-species MLP inference over n gathered
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
func (m *Model) evalBlock(types []int, base, n int, desc []float64, be *blockEval, eAtom, gdRows []float64, gdStride int) {
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

// gatherAtom is the descriptor half of EvalAtom: it builds atom i's
// environment from the candidate neighbor list cand (same cutoff filter and
// order as EvalAtom) and fills desc (length Dim), vec (length
// NSpecies·NRadial·3) and the radial tape rad, leaving the MLP to a later
// evalBlock over many gathered rows. cs must be Spec.centers(). rad must
// hold len(cand)·Spec.RadialLen() values; the record of the n-th candidate
// within the cutoff lands at rad[n·RadialLen():], and the return value is
// how many there were.
//
//mlmd:hotpath
func (m *Model) gatherAtom(sys *md.System, i int, cand []int32, cs []float64, scr *EvalScratch, desc, vec, rad []float64) int {
	buildEnv(sys, i, cand, m.Spec.Cutoff, &scr.env)
	m.Spec.descriptorInto(sys, &scr.env, desc, cs, vec, rad)
	return len(scr.env.j)
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
