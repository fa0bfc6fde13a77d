package shard

import (
	"fmt"

	"mlmd/internal/allegro"
)

// AllegroFF shards an Allegro-style neural force field: a thin adapter that
// runs the model's one force assembly (allegro.TwoPhase) over the rank's
// owned rows, as LJ runs md.LennardJones's row loop. Each rank holds its own
// TwoPhase over the shared read-only model:
//
//   - PhaseOne evaluates the owned atoms against their ascending-global-id
//     neighbor rows: each atom's energy plus its fixed-width payload
//     [gD | S] (AuxLen wide), and the radial tape of its pairs.
//   - The engine halo-exchanges the payloads (same three-axis pattern and
//     ghost slots as positions), so every rank holds the payload of every
//     atom its owned atoms interact with.
//   - PhaseTwo assembles each owned atom's force as a single chain over its
//     row in ascending global-id order, from local and ghost payloads.
//
// Every term of that chain is computed from raw global coordinates and
// owner-computed payloads, and the chain order is the
// decomposition-invariant global-id order — so forces are bitwise identical
// for every grid shape, per the package determinism contract, and to the
// unsharded allegro.Model.ComputeForces.
//
// PhaseOne runs over a range of owned atoms: TwoPhase keeps per-atom
// energies and PhaseOneFinish reduces them in fixed chunks over [0, NOwn),
// so the engine evaluates boundary atoms first and overlaps the interior
// evaluation with the first payload exchange axis without perturbing a
// single energy bit.
type AllegroFF struct {
	tp     *allegro.TwoPhase
	cutoff float64 // the model's
}

// AllegroFactory returns a Config.NewFF producing per-rank two-phase
// assemblies of model, which they share read-only.
func AllegroFactory(model *allegro.Model) func(rank int) RankFF {
	return func(int) RankFF {
		return &AllegroFF{tp: model.NewTwoPhase(), cutoff: model.Spec.Cutoff}
	}
}

// PartialLen implements RankFF.
func (a *AllegroFF) PartialLen() int { return 1 }

// NeedsNeighborList implements RankFF: both phases run over the engine's
// ascending-global-id neighbor rows — the order is the determinism
// contract, not just an optimization.
func (a *AllegroFF) NeedsNeighborList() bool { return true }

// AuxLen implements TwoPhaseFF: [gD | S] per atom.
func (a *AllegroFF) AuxLen() int { return a.tp.AuxLen() }

// PhaseOne implements TwoPhaseFF: inference of owned atoms [lo, hi),
// filling their aux payloads and energies.
func (a *AllegroFF) PhaseOne(v *View, aux []float64, lo, hi int) {
	if v.Cutoff < a.cutoff {
		panic(fmt.Sprintf("shard: engine cutoff %g is smaller than the Allegro model cutoff %g — the halo would miss interacting neighbors",
			v.Cutoff, a.cutoff))
	}
	a.tp.PhaseOne(v.Sys, v.NL, aux, lo, hi)
}

// PhaseOneFinish implements TwoPhaseFF: the energy reduction over all
// owned atoms, whose bits are independent of how PhaseOne calls covered
// [0, NOwn).
func (a *AllegroFF) PhaseOneFinish(v *View, partial []float64) {
	partial[0] += a.tp.Energy(v.NOwn)
}

// PhaseTwo implements TwoPhaseFF: canonical-order force assembly of owned
// atoms [lo, hi) from the exchanged payloads.
func (a *AllegroFF) PhaseTwo(v *View, aux []float64, lo, hi int) {
	a.tp.PhaseTwo(v.Sys, v.NL, aux, lo, hi)
}

// Energy implements RankFF.
func (a *AllegroFF) Energy(_ *View, total []float64) float64 { return total[0] }
