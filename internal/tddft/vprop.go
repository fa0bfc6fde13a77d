package tddft

import (
	"mlmd/internal/grid"
	"mlmd/internal/linalg"
	"mlmd/internal/par"
)

// phaseTable fills dst[g] = e^{−i·dt·v[g]}, the local-potential phase of a
// step dt, for len(dst) points of v. This is the only place the v_prop trig
// is evaluated: the Propagator keeps the table across the sub-steps of one
// run, ShardProp across the two half-steps of one step. The phases go
// through linalg.SincosRows a block at a time, in stack arrays: the same bits
// as math.Sincos per point.
//
//mlmd:hotpath
func phaseTable(dst []complex128, v []float64, dt float64) {
	const block = 64
	var x, sin, cos [block]float64
	v = v[:len(dst)]
	for g0 := 0; g0 < len(dst); g0 += block {
		n := min(block, len(dst)-g0)
		for i := 0; i < n; i++ {
			x[i] = -dt * v[g0+i]
		}
		linalg.SincosRows(sin[:n], cos[:n], x[:n])
		for i := 0; i < n; i++ {
			dst[g0+i] = complex(cos[i], sin[i])
		}
	}
}

// applyPhase multiplies every orbital value at mesh point g by table[g]
// (linalg.ZPhaseRows), for both layouts; parallel shards the mesh over the
// worker pool. Mesh rows are disjoint, so any chunking is race-free and
// bitwise identical to the serial sweep.
//
//mlmd:hotpath
func applyPhase(w *grid.WaveField, table []complex128, parallel bool) {
	n := w.G.Len()
	norb := w.Norb
	table = table[:n]
	if w.Layout != grid.LayoutSoA {
		for s := 0; s < norb; s++ {
			linalg.ZPhaseRows(w.Data[s*n:(s+1)*n], 1, table)
		}
		return
	}
	grain := sweepGrain(norb)
	if !parallel || n <= grain {
		linalg.ZPhaseRows(w.Data, norb, table)
		return
	}
	data := w.Data
	par.For(n, grain, func(lo, hi, _ int) {
		linalg.ZPhaseRows(data[lo*norb:hi*norb], norb, table[lo:hi])
	})
}

// vpropChunk is the number of mesh points whose phases VProp keeps on the
// stack at a time.
const vpropChunk = 256

// VProp applies the local-potential phase exp(−iΔt v_loc(r)) to every
// orbital of w in place, for both layouts, without any retained state: the
// phases are evaluated chunk by chunk on the stack. The Propagator applies
// the same phases from a table it keeps across sub-steps.
//
//mlmd:hotpath
func VProp(h *Hamiltonian, w *grid.WaveField, dt float64) {
	n := h.G.Len()
	if w.G != h.G {
		panic("tddft: VProp grid mismatch")
	}
	norb := w.Norb
	var buf [vpropChunk]complex128
	for g0 := 0; g0 < n; g0 += vpropChunk {
		g1 := min(g0+vpropChunk, n)
		table := buf[:g1-g0]
		phaseTable(table, h.Vloc[g0:g1], dt)
		if w.Layout == grid.LayoutSoA {
			linalg.ZPhaseRows(w.Data[g0*norb:g1*norb], norb, table)
			continue
		}
		for s := 0; s < norb; s++ {
			linalg.ZPhaseRows(w.Data[s*n+g0:s*n+g1], 1, table)
		}
	}
}
