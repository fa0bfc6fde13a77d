package allegro

import (
	"fmt"

	"mlmd/internal/md"
	"mlmd/internal/nn"
	"mlmd/internal/precision"
)

// Model is the Allegro-style force field: one MLP per species mapping the
// invariant descriptor to an atomic energy; total energy is the sum of
// atomic energies; forces follow analytically.
//
// A Model is not safe for concurrent use: Energy/ComputeForces share the
// neighbor list and the two-phase scratch (ComputeForces itself
// parallelizes internally over the worker pool). Evaluate concurrent
// configurations on separate Model instances, or on one TwoPhase each
// (NewTwoPhase), as the sharded engine's ranks do.
type Model struct {
	Spec DescriptorSpec
	// Nets[sp] predicts the atomic energy of species sp.
	Nets []*nn.MLP
	// PerSpeciesShift[sp] is an additive atomic reference energy (learned
	// or set by TEA alignment).
	PerSpeciesShift []float64
	// BlockSize caps how many rows of one species go into one GEMM chunk
	// of the blocked inference (block model inference, Sec. V.B.9), and
	// with it the block MemoryEstimate reports. 0 means one chunk per
	// species. Each row's results are independent of its chunk, so
	// BlockSize moves no energy or force bit.
	BlockSize int
	// Mode selects the inference arithmetic: blocked float64 GEMMs (the
	// zero value EvalBatched, bitwise identical to per-atom EvalAtom
	// inference) or their GEMMMixed float32 variant.
	Mode EvalMode
	// MixedMode is the precision.GEMMMixed compute mode used when Mode
	// is EvalBatchedMixed (the zero value is FP32).
	MixedMode precision.Mode
	// nl (full rows, ascending atom index) is rebuilt on demand; tp and
	// aux are ComputeForces' two-phase assembly and its payload array.
	nl  *md.NeighborList
	tp  *TwoPhase
	aux []float64
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
// returns the predicted energy. It runs the two-phase assembly (TwoPhase)
// over every atom — the sharded engine's path on a 1x1x1 grid — so its E
// and F are the same bits at every worker count and BlockSize, and its F
// the same bits as the engine's at every grid.
func (m *Model) ComputeForces(sys *md.System) float64 {
	m.ensureNeighbors(sys)
	if m.tp == nil {
		m.tp = m.NewTwoPhase()
	}
	m.aux = growF64(m.aux, sys.N*m.tp.AuxLen())
	m.tp.PhaseOne(sys, m.nl, m.aux, 0, sys.N)
	e := m.tp.Energy(sys.N)
	m.tp.PhaseTwo(sys, m.nl, m.aux, 0, sys.N)
	return e
}

// EvalScratch holds the reusable buffers of gatherAtom and EvalAtom — the
// neighbor environment, and EvalAtom's descriptor and MLP forward tape with
// its backward delta scratch — so per-atom gathering and inference in
// steady state allocate nothing (one EvalScratch per worker in a
// pool-parallel caller, as TwoPhase's gather keeps them).
type EvalScratch struct {
	env  neighborEnv
	desc []float64
	gOut [1]float64
	tape nn.Tape
}

// EvalAtom evaluates atom i in isolation, one MLP forward and backward
// tape: it builds the environment from the candidate neighbor indices cand
// (in the caller's order; candidates at or beyond the cutoff are skipped),
// computes the descriptor and the per-species network's energy, and
// backpropagates to fill gD = dE_i/dDescriptor (length Spec.Dim()), vec =
// the vector-channel accumulators S_i (length NSpecies·NRadial·3) and the
// radial tape rad (see gatherAtom). cs must be Spec.centers(). It returns
// the atomic energy E_i and the number of neighbors within the cutoff.
//
// EvalAtom is the per-atom reference of the blocked path: gatherAtom plus
// evalBlock produce the same E_i and gD bit for bit, which is how TwoPhase
// runs inference.
func (m *Model) EvalAtom(sys *md.System, i int, cand []int32, cs []float64, scr *EvalScratch, gD, vec, rad []float64) (float64, int) {
	if len(scr.desc) != m.Spec.Dim() {
		scr.desc = make([]float64, m.Spec.Dim())
	}
	nAcc := m.gatherAtom(sys, i, cand, cs, scr, scr.desc, vec, rad)
	sp := sys.Type[i]
	net := m.Nets[sp]
	tape := net.ForwardTapeInto(scr.desc, &scr.tape)
	scr.gOut[0] = 1
	net.BackwardInto(tape, scr.gOut[:], nil, gD)
	return tape.Out() + m.PerSpeciesShift[sp], nAcc
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
