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
	// BlockSize caps how many atoms ComputeForces evaluates per block
	// (block model inference, Sec. V.B.9) and how many rows of one species
	// EvalBlock puts in one GEMM chunk. 0 means no blocking. Each block's
	// partial forces merge into F before the next block runs, so BlockSize
	// sets ComputeForces' force-accumulation grouping and with it the
	// force bits; the chunking alone moves no bit.
	BlockSize int
	// Mode selects the inference arithmetic: blocked float64 GEMMs (the
	// zero value EvalBatched, bitwise identical to per-atom EvalAtom
	// inference) or their GEMMMixed float32 variant.
	Mode EvalMode
	// MixedMode is the precision.GEMMMixed compute mode used when Mode
	// is EvalBatchedMixed (the zero value is FP32).
	MixedMode precision.Mode
	// nl (full rows, ascending atom index) is rebuilt on demand.
	nl *md.NeighborList
	// Per-part scratch and closure of the pool-parallel force path
	// (batch.go).
	bscratch *par.Scratch[batchState]
	bctx     struct {
		sys         *md.System
		base        int
		span, parts int
	}
	batchFn func(lo, hi, w int)
}

// NewModel builds a model with hidden layer sizes hidden for every species.
func NewModel(spec DescriptorSpec, hidden []int, seed int64) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Spec: spec, PerSpeciesShift: make([]float64, spec.NSpecies)}
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
// per-part gradient accumulators merged (in part order) at the end.
func (m *Model) ComputeForces(sys *md.System) float64 {
	m.ensureNeighbors(sys)
	for i := range sys.F {
		sys.F[i] = 0
	}
	block := m.BlockSize
	if block <= 0 || block > sys.N {
		block = sys.N
	}
	var energy float64
	for lo := 0; lo < sys.N; lo += block {
		hi := lo + block
		if hi > sys.N {
			hi = sys.N
		}
		energy += m.forceBlockBatched(sys, lo, hi)
	}
	return energy
}

// EvalScratch holds the reusable buffers of GatherAtom and EvalAtom — the
// neighbor environment, and EvalAtom's descriptor and MLP forward tape with
// its backward delta scratch — so per-atom gathering and inference in
// steady state allocate nothing (one EvalScratch per worker in a
// pool-parallel caller, e.g. through par.Scratch as the sharded AllegroFF
// does).
type EvalScratch struct {
	env  neighborEnv
	desc []float64
	gOut [1]float64
	tape nn.Tape
}

// Neighbors returns the neighbor indices of the environment the last
// GatherAtom (or EvalAtom) built with this scratch, in candidate order: the
// n-th is the atom whose record went to rad[n·RadialLen():]. The slice is
// scratch and changes with the next call.
func (s *EvalScratch) Neighbors() []int { return s.env.j }

// EvalAtom evaluates atom i in isolation, one MLP forward and backward
// tape: it builds the environment from the candidate neighbor indices cand
// (in the caller's order; candidates at or beyond the cutoff are skipped),
// computes the descriptor and the per-species network's energy, and
// backpropagates to fill gD = dE_i/dDescriptor (length Spec.Dim()), vec =
// the vector-channel accumulators S_i (length NSpecies·NRadial·3) and the
// radial tape rad (see GatherAtom). cs must be Spec.Centers(). It returns
// the atomic energy E_i and the number of neighbors within the cutoff.
//
// EvalAtom is the per-atom reference of the blocked path: GatherAtom plus
// EvalBlock produce the same E_i and gD bit for bit, which is how both the
// global force path and the sharded AllegroFF run inference.
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
