package allegro

import (
	"fmt"

	"mlmd/internal/md"
	"mlmd/internal/nn"
	"mlmd/internal/par"
	"mlmd/internal/precision"
)

// Model is the Allegro-style force field: one MLP per species mapping the
// invariant descriptor to an atomic energy; total energy is the sum of
// atomic energies; forces follow analytically.
//
// A Model is not safe for concurrent use: Energy/ComputeForces share the
// neighbor list and per-part inference scratch (ComputeForces itself
// parallelizes internally over the worker pool). Evaluate concurrent
// configurations on separate Model instances.
type Model struct {
	Spec DescriptorSpec
	// Nets[sp] predicts the atomic energy of species sp.
	Nets []*nn.MLP
	// PerSpeciesShift[sp] is an additive atomic reference energy (learned
	// or set by TEA alignment).
	PerSpeciesShift []float64
	// BlockSize caps how many atoms are evaluated per inference batch
	// (block model inference, Sec. V.B.9). 0 means no blocking.
	BlockSize int
	// Mode selects the inference implementation: per-atom tapes (the
	// seed path), blocked GEMM64 batching (bitwise identical), or the
	// GEMMMixed float32 variant. NewModel applies the package defaults
	// (SetEvalDefaults / MLMD_ALLEGRO_BLOCK).
	Mode EvalMode
	// MixedMode is the precision.GEMMMixed compute mode used when Mode
	// is EvalBatchedMixed (the zero value is FP32).
	MixedMode precision.Mode
	// nl (full rows, ascending atom index) is rebuilt on demand.
	nl *md.NeighborList
	// Per-worker inference scratch for the pool-parallel force path.
	scratch *par.Scratch[inferState]
	fctx    struct {
		sys         *md.System
		base        int
		span, parts int
	}
	forceFn func(lo, hi, w int)
	// Per-part scratch and closure of the batched force path (batch.go).
	bscratch *par.Scratch[batchState]
	bctx     struct {
		sys         *md.System
		net         *Model
		base        int
		span, parts int
		gathered    bool
	}
	batchFn func(lo, hi, w int)
}

// inferState is one worker's reusable inference scratch: the neighbor
// environment, descriptor/gradient buffers with the atom's radial tape, and
// the private dE/dx accumulator merged after each block.
type inferState struct {
	env  neighborEnv
	desc []float64
	cs   []float64
	vec  []float64
	rad  []float64
	gOut [1]float64
	dEdx []float64
	tape nn.Tape
	gD   []float64
	e    float64
	// active marks slots touched in the current block (their partials
	// need merging and their accumulators need zeroing next block).
	active bool
}

// NewModel builds a model with hidden layer sizes hidden for every species.
func NewModel(spec DescriptorSpec, hidden []int, seed int64) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Spec: spec, PerSpeciesShift: make([]float64, spec.NSpecies)}
	m.Mode, m.BlockSize = evalDefaults()
	sizes := append([]int{spec.Dim()}, hidden...)
	sizes = append(sizes, 1)
	for sp := 0; sp < spec.NSpecies; sp++ {
		net, err := nn.NewMLP(sizes, nn.SiLU, seed+int64(sp)*7919)
		if err != nil {
			return nil, err
		}
		m.Nets = append(m.Nets, net)
	}
	nl, err := md.NewNeighborList(spec.Cutoff, 0.3)
	if err != nil {
		return nil, err
	}
	m.nl = nl
	return m, nil
}

// NumWeights returns the total trainable parameter count over all species
// nets (the "weights" of the paper's T2S metric).
func (m *Model) NumWeights() int {
	n := 0
	for _, net := range m.Nets {
		n += net.NumWeights()
	}
	return n + len(m.PerSpeciesShift)
}

// ensureNeighbors rebuilds the neighbor list if any atom moved past the
// skin.
func (m *Model) ensureNeighbors(sys *md.System) {
	if m.nl.Stale(sys) {
		m.nl.Build(sys)
	}
}

// Energy returns the total predicted energy of sys.
func (m *Model) Energy(sys *md.System) float64 {
	m.ensureNeighbors(sys)
	desc := make([]float64, m.Spec.Dim())
	cs := m.Spec.centers()
	vec := make([]float64, m.Spec.NSpecies*m.Spec.NRadial*3)
	var env neighborEnv
	var rad []float64
	var e float64
	for i := 0; i < sys.N; i++ {
		buildEnv(sys, i, m.nl.Row(i), m.Spec.Cutoff, &env)
		rad = growF64(rad, len(env.j)*m.Spec.RadialLen())
		m.Spec.descriptorInto(sys, &env, desc, cs, vec, rad)
		sp := sys.Type[i]
		e += m.Nets[sp].Forward(desc)[0] + m.PerSpeciesShift[sp]
	}
	return e
}

// ComputeForces implements md.ForceField: fills sys.F with −dE/dx and
// returns the predicted energy. Atoms are processed in blocks of BlockSize
// (if set), each block sharded over the shared worker pool with private
// per-worker gradient accumulators merged (in worker order) at the end.
func (m *Model) ComputeForces(sys *md.System) float64 {
	return m.ComputeForcesOwned(sys, sys.N)
}

// ComputeForcesOwned evaluates the atomic energies of atoms [0, nOwned)
// only, scattering −dE/dx into sys.F for every atom of sys (owned and
// beyond), and returns Σ E_i over the owned range — the owned-prefix kernel
// of a reverse-force-halo decomposition (sum the scattered ghost partials
// back at the owners). The sharded engine no longer uses this scheme: its
// canonical-order path evaluates per-atom payloads with EvalAtom and
// assembles forces through PairGradTaped, which is bitwise reproducible
// across decompositions where the scatter-sum here is not. With
// nOwned == sys.N it is exactly the full ComputeForces.
func (m *Model) ComputeForcesOwned(sys *md.System, nOwned int) float64 {
	if nOwned < 0 || nOwned > sys.N {
		nOwned = sys.N
	}
	m.ensureNeighbors(sys)
	for i := range sys.F {
		sys.F[i] = 0
	}
	block := m.BlockSize
	if block <= 0 || block > nOwned {
		block = nOwned
	}
	var energy float64
	for lo := 0; lo < nOwned; lo += block {
		hi := lo + block
		if hi > nOwned {
			hi = nOwned
		}
		if m.Mode == EvalPerAtom {
			energy += m.forceBlock(sys, lo, hi)
		} else {
			energy += m.forceBlockBatched(sys, m, sys.F, lo, hi, false)
		}
	}
	return energy
}

// EvalScratch holds the reusable buffers of EvalAtom — the neighbor
// environment, the descriptor, and the MLP forward tape with its backward
// delta scratch — so per-atom inference in steady state allocates nothing
// (one EvalScratch per worker in a pool-parallel caller, e.g. through
// par.Scratch as the sharded AllegroFF does).
type EvalScratch struct {
	env  neighborEnv
	desc []float64
	gOut [1]float64
	tape nn.Tape
}

// EvalAtom evaluates atom i in isolation for decomposed canonical-order
// force assembly: it builds the environment from the candidate neighbor
// indices cand (in the caller's order — the sharded engine passes its
// ascending-global-id neighbor row; candidates at or beyond the cutoff are
// skipped), computes the descriptor and the per-species network's energy,
// and backpropagates to fill gD = dE_i/dDescriptor (length Spec.Dim()),
// vec = the vector-channel accumulators S_i (length NSpecies·NRadial·3) and
// the radial tape rad (see GatherAtom). cs must be Spec.Centers(). It
// returns the atomic energy E_i and the number of neighbors within the
// cutoff.
//
// gD, vec and the tape records are exactly the inputs PairGradTaped needs,
// so a caller holding (gD, vec) for every atom of a pair and one side's
// record can reconstruct both sides' gradient contributions without
// re-running inference.
func (m *Model) EvalAtom(sys *md.System, i int, cand []int32, cs []float64, scr *EvalScratch, gD, vec, rad []float64) (float64, int) {
	if len(scr.desc) != m.Spec.Dim() {
		scr.desc = make([]float64, m.Spec.Dim())
	}
	nAcc := m.GatherAtom(sys, i, cand, cs, scr, scr.desc, vec, rad)
	sp := sys.Type[i]
	net := m.Nets[sp]
	tape := net.ForwardTapeInto(scr.desc, &scr.tape)
	scr.gOut[0] = 1
	net.BackwardInto(tape, scr.gOut[:], nil, gD)
	return tape.Out() + m.PerSpeciesShift[sp], nAcc
}

// CloneShared returns a new Model sharing this model's (read-only at
// inference time) weights and per-species shifts, but with private neighbor
// list and inference scratch, so several goroutines — e.g. the ranks of a
// sharded run — can evaluate concurrently on different systems.
func (m *Model) CloneShared() *Model {
	c := &Model{
		Spec:            m.Spec,
		Nets:            m.Nets,
		PerSpeciesShift: m.PerSpeciesShift,
		BlockSize:       m.BlockSize,
		Mode:            m.Mode,
		MixedMode:       m.MixedMode,
	}
	nl, err := md.NewNeighborList(m.Spec.Cutoff, m.nl.Skin)
	if err != nil {
		panic(err) // unreachable: the source model validated the spec
	}
	c.nl = nl
	return c
}

// forceBlock evaluates atoms [lo,hi) on the worker pool, split into one
// contiguous range per part (parts = pool size). Each part accumulates
// dE/dx into its own scratch slot (the descriptor gradient scatters to
// neighbors, so naive sharding of sys.F would race); partials merge into
// sys.F in part order afterwards. Keying the accumulator by the static
// part index — not the scheduling-dependent worker id — makes the result
// deterministic for a fixed worker count, like the seed's static split.
func (m *Model) forceBlock(sys *md.System, lo, hi int) float64 {
	if m.scratch == nil {
		m.scratch = par.NewScratch(func() *inferState { return &inferState{} })
		m.forceFn = func(part, _, _ int) {
			sys := m.fctx.sys
			base := m.fctx.base
			flo := part * m.fctx.span / m.fctx.parts
			fhi := (part + 1) * m.fctx.span / m.fctx.parts
			ws := m.scratch.Get(part)
			if len(ws.desc) != m.Spec.Dim() {
				ws.desc = make([]float64, m.Spec.Dim())
				ws.cs = m.Spec.centers()
				ws.vec = make([]float64, m.Spec.NSpecies*m.Spec.NRadial*3)
				ws.gD = make([]float64, m.Spec.Dim())
			}
			rl := m.Spec.RadialLen()
			if len(ws.dEdx) != 3*sys.N {
				ws.dEdx = make([]float64, 3*sys.N)
			}
			// Zero the stale accumulator from the previous block.
			for k := range ws.dEdx {
				ws.dEdx[k] = 0
			}
			ws.e = 0
			ws.active = true
			ws.gOut[0] = 1
			for i := base + flo; i < base+fhi; i++ {
				buildEnv(sys, i, m.nl.Row(i), m.Spec.Cutoff, &ws.env)
				ws.rad = growF64(ws.rad, len(ws.env.j)*rl)
				m.Spec.descriptorInto(sys, &ws.env, ws.desc, ws.cs, ws.vec, ws.rad)
				sp := sys.Type[i]
				net := m.Nets[sp]
				tape := net.ForwardTapeInto(ws.desc, &ws.tape)
				ws.e += tape.Out() + m.PerSpeciesShift[sp]
				gD := net.BackwardInto(tape, ws.gOut[:], nil, ws.gD)
				m.Spec.descriptorGradPre(sys, ws.env, i, gD, ws.dEdx, ws.vec, ws.rad)
			}
		}
	}
	m.scratch.Each(func(_ int, ws *inferState) { ws.active = false })
	parts := par.Workers()
	if parts > hi-lo {
		parts = hi - lo
	}
	m.fctx.sys = sys
	m.fctx.base = lo
	m.fctx.span = hi - lo
	m.fctx.parts = parts
	par.For(parts, 1, m.forceFn)
	var e float64
	m.scratch.Each(func(_ int, ws *inferState) {
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

// MemoryEstimate returns a rough per-block inference memory footprint in
// bytes: neighbor-list tensors dominate with a prefactor of 50–200 per atom
// (paper Sec. V.B.9). Used by the cluster model to derive the maximum
// resident system size per device.
func (m *Model) MemoryEstimate(atoms int) int64 {
	block := m.BlockSize
	if block <= 0 || block > atoms {
		block = atoms
	}
	const neighborPrefactor = 100 // paper: 50–200
	perAtom := int64(3*8+4) + neighborPrefactor*8
	return int64(m.NumWeights())*8 + int64(block)*perAtom
}

// String implements fmt.Stringer.
func (m *Model) String() string {
	return fmt.Sprintf("allegro model: %d species, %d descriptors, %d weights",
		m.Spec.NSpecies, m.Spec.Dim(), m.NumWeights())
}
