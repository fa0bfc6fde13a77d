// Dynamic subdomain-boundary balancing (ISSUE 4): every rank tracks an EWMA
// of its per-step local compute wall time, and every K-th rebuild the ranks
// AllGather the load profile and shift the per-axis cut planes of the
// cluster.Cuts3D partition toward the load centroid. The shift is the
// recursive-bisection target — the plane position where the piecewise-linear
// cumulative load along the axis crosses j/P of the total — damped by a
// per-plane cap that guarantees two invariants by construction:
//
//   - no plane moves more than the halo width per rebalance (migration
//     after the shift stays single-ring: an atom's owner index changes by
//     at most one along each axis, and teleport convergence is untouched);
//   - no subdomain ever narrows below the halo (the constructor's
//     halo <= width requirement keeps holding, so the one-hop ghost
//     protocol never needs multi-hop forwarding).
//
// The cap is min(halo, (w_left−minW)/2, (w_right−minW)/2): even if both
// planes of a subdomain move toward each other at full cap, the width stays
// >= minW. Rebalancing changes only *where* atoms live, never the forces —
// the canonical-order contract makes trajectories bitwise identical to the
// static grid, which TestGridDecompositionIdentityMatrixBalanced* locks.
package shard

import "mlmd/internal/cluster"

// CostModel selects the per-rank load scalar the boundary balancer
// equalizes.
type CostModel int

const (
	// CostStepTime balances the EWMA of measured per-step local compute
	// seconds (force evaluation plus neighbor-list builds, excluding
	// communication waits) — the production signal, which automatically
	// reflects heterogeneous force fields and hosts.
	CostStepTime CostModel = iota
	// CostOwnedAtoms balances the per-rank owned-atom count: a
	// deterministic proxy for step time (force work is ~linear in local
	// atoms at uniform density), used by reproducibility and property
	// tests that need identical cut motion on every run.
	CostOwnedAtoms
)

// defaultBalanceEvery is the rebalance period in rebuild events; the first
// rebuild of a run (nRebuilds = 1) therefore never rebalances, so the load
// EWMA has at least one measured step behind it by the first shift.
const defaultBalanceEvery = 2

// ewmaAlpha is the smoothing factor 2/(window+1) of the per-rank
// step-time load EWMA, over a window of 32 force evaluations.
const ewmaAlpha = 2.0 / 33

// balancer is the cut-plane controller state. Its scratch and statistics
// are written only by rank 0 inside the rebalance collective (all other
// ranks are between the AllGather and the Barrier then) and read
// driver-side while the ranks are parked, so no locking is needed.
type balancer struct {
	every int64
	cost  CostModel

	// rank-0 scratch (sized once at construction).
	slab [3][]float64
	cum  []float64

	// statistics (driver-side reads via BalanceStats).
	nRebalances int64
	maxApplied  float64
}

// newBalancer sizes the controller for the grid.
func newBalancer(cfg Config, grid cluster.Grid3D) *balancer {
	b := &balancer{
		every: int64(cfg.BalanceEvery),
		cost:  cfg.BalanceCost,
	}
	if b.every <= 0 {
		b.every = defaultBalanceEvery
	}
	maxP := 0
	for a := 0; a < 3; a++ {
		b.slab[a] = make([]float64, grid.P[a])
		if grid.P[a] > maxP {
			maxP = grid.P[a]
		}
	}
	b.cum = make([]float64, maxP+1)
	return b
}

// maybeRebalance is the rank side of the rebalance collective, called at
// the top of every rebuild. All ranks agree on the rebuild count (rebuilds
// are collective), so they enter or skip the collective together. The
// sequence is AllGather(load) -> the engine's apply rank moves the cut
// planes -> Barrier -> every rank re-reads its subdomain corner and
// widths. In-process the apply rank is rank 0 writing the shared Cuts3D
// (the barrier's lock ordering makes the writes visible to all ranks); in
// a multi-process run every engine's single hosted rank applies the same
// deterministic controller to its private Cuts3D copy — the AllGather
// hands every process the identical load profile, so the cut planes stay
// identical across processes without any extra exchange.
func (e *Engine) maybeRebalance(rs *rankState) {
	b := e.bal
	if b == nil || rs.nRebuilds%b.every != 0 {
		return
	}
	load := rs.loadEWMA
	if b.cost == CostOwnedAtoms {
		load = float64(rs.nOwn)
	}
	rs.loadVec[0] = load
	rs.loadsAll = e.comm.AllGather(rs.rank, rs.loadVec[:], rs.loadsAll)
	if rs.rank == e.applyRank {
		e.applyBalancedCuts(rs.loadsAll, rs.halo)
	}
	e.comm.Barrier(rs.rank)
	for a := 0; a < 3; a++ {
		rs.lo[a] = e.cuts.Lo(a, rs.coords[a])
		rs.w[a] = e.cuts.Width(a, rs.coords[a])
	}
}

// applyBalancedCuts moves the interior cut planes of every partitioned axis
// toward the load centroid (the engine's apply rank only; see balancer for
// the invariants, which hold for halo, the current one: a plane moves at
// most halo, and no subdomain narrows below it). Axes are independent:
// axis a's profile is the per-slab sum of the rank loads over the
// perpendicular plane — exactly the recursive-bisection view of the 3-D
// load field. Rank coordinates come
// from the grid topology (not from rank state, which a partial engine only
// holds for its own ranks), so every process computes the identical
// profile.
func (e *Engine) applyBalancedCuts(loads []float64, halo float64) {
	b := e.bal
	moved := false
	for _, a := range e.axes {
		pa := e.grid.P[a]
		slab := b.slab[a]
		for i := range slab {
			slab[i] = 0
		}
		total := 0.0
		for r := 0; r < e.p; r++ {
			c := [3]int{}
			c[0], c[1], c[2] = e.grid.Coords(r)
			slab[c[a]] += loads[r]
			total += loads[r]
		}
		if total <= 0 {
			continue // cold start: no load measured yet
		}
		cs := e.cuts.C[a]
		cum := b.cum[:pa+1]
		cum[0] = 0
		for i := 0; i < pa; i++ {
			cum[i+1] = cum[i] + slab[i]
		}
		// Each interior plane j moves toward the position where the
		// cumulative load (piecewise linear: load assumed uniform inside a
		// slab) reaches j/pa of the total, damped by a per-plane cap of
		// half the slack (gap − minW) toward each neighbor, measured
		// against that neighbor's position in cs at the time — planes are
		// processed descending, so the right neighbor is already final and
		// the left one still old. Induction keeps every gap >= minW: the
		// right cap makes the final gap to plane j+1 at least minW
		// directly, and it leaves gap(j−1_old, j_new) >= minW + h for some
		// slack h >= 0 of which plane j−1 may later consume at most h/2.
		for j := pa - 1; j >= 1; j-- {
			target := total * float64(j) / float64(pa)
			k := 0
			for k < pa-1 && cum[k+1] <= target {
				k++
			}
			pos := cs[k]
			if slab[k] > 0 {
				pos += (target - cum[k]) / slab[k] * (cs[k+1] - cs[k])
			}
			lim := halo
			if s := (cs[j] - cs[j-1] - halo) / 2; s < lim {
				lim = s
			}
			if s := (cs[j+1] - cs[j] - halo) / 2; s < lim {
				lim = s
			}
			if lim < 0 {
				lim = 0
			}
			shift := pos - cs[j]
			if shift > lim {
				shift = lim
			} else if shift < -lim {
				shift = -lim
			}
			cs[j] += shift
			if shift < 0 {
				shift = -shift
			}
			if shift > b.maxApplied {
				b.maxApplied = shift
			}
			if shift > 0 {
				moved = true
			}
		}
	}
	if moved || totalPositive(loads) {
		b.nRebalances++
	}
}

// totalPositive reports whether any load was measured (a rebalance with an
// all-zero profile is a cold-start no-op and is not counted).
func totalPositive(loads []float64) bool {
	for _, l := range loads {
		if l > 0 {
			return true
		}
	}
	return false
}

// --- driver-side diagnostics (call only between dispatches) ---

// RankLoads returns each rank's current load EWMA (seconds of local compute
// per force step). Available for static runs too — it is the imbalance
// diagnostic the balancer would act on. A partial engine reports zeros for
// ranks hosted by other processes.
func (e *Engine) RankLoads() []float64 {
	out := make([]float64, e.p)
	for _, rs := range e.local {
		out[rs.rank] = rs.loadEWMA
	}
	return out
}

// LoadImbalance returns max/mean over the hosted ranks of the per-rank
// step-time load EWMA — 1.0 is perfect balance; a bulk-synchronous step
// wastes (imbalance−1)/imbalance of the machine. Returns 0 before any step
// ran. A partial engine hosts one rank, so its view is trivially 1.0 —
// the cross-process profile exists only inside the rebalance AllGather.
func (e *Engine) LoadImbalance() float64 {
	loads := make([]float64, 0, len(e.local))
	for _, rs := range e.local {
		loads = append(loads, rs.loadEWMA)
	}
	return maxOverMean(loads)
}

// OwnedImbalance returns max/mean over the hosted ranks of the owned-atom
// counts (the deterministic density-imbalance view of the same quantity;
// see LoadImbalance for the partial-engine caveat).
func (e *Engine) OwnedImbalance() float64 {
	loads := make([]float64, 0, len(e.local))
	for _, rs := range e.local {
		loads = append(loads, float64(rs.nOwn))
	}
	return maxOverMean(loads)
}

// maxOverMean returns max(v)/mean(v), or 0 for an empty or zero-sum v.
func maxOverMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum, max := 0.0, 0.0
	for _, x := range v {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum <= 0 {
		return 0
	}
	return max / (sum / float64(len(v)))
}

// LoadProfile returns a copy of the last AllGathered per-rank load profile
// (rank order on the grid), or nil when no rebalance collective has gathered
// one yet — a static run, or a balanced run before its first rebalance.
// Checkpoint writers persist it so a shrink-and-resume can seed the new
// layout's cut planes from measured load (SeedCuts).
func (e *Engine) LoadProfile() []float64 {
	rs := e.rs[e.applyRank]
	if rs == nil || len(rs.loadsAll) == 0 {
		return nil
	}
	return append([]float64(nil), rs.loadsAll...)
}

// BalanceStats reports the controller's event counters: completed
// rebalances (cold-start no-ops excluded) and the largest single-plane
// shift ever applied — by construction never above the halo width (the
// halo of its rebalance; it only widens).
// (0, 0) when balancing is disabled.
func (e *Engine) BalanceStats() (rebalances int64, maxShift float64) {
	if e.bal == nil {
		return 0, 0
	}
	return e.bal.nRebalances, e.bal.maxApplied
}

// CutPlanes returns a copy of the current cut-plane positions along axis
// (driver-side; the planes move only inside rebalance collectives).
func (e *Engine) CutPlanes(axis int) []float64 {
	return e.cuts.Planes(axis)
}
