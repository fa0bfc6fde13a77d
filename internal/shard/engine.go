// Package shard is the domain-decomposed MD engine of the XS-NNQMD module:
// an md.System partitioned over a full Px×Py×Pz spatial domain grid across
// P ranks that communicate through cluster.Comm exactly like an MPI code —
// as goroutines of one process by default, or as one OS process per rank
// when Config.Comm supplies a communicator over the Unix-socket transport
// (Config.LocalRank selects the hosted rank; trajectories are bitwise
// identical either way). The halo pattern is the standard three sequential per-axis ring
// exchanges — x first, then y (forwarding the freshly received x-ghosts),
// then z (forwarding x- and y-ghosts) — so edge and corner ghosts arrive
// through their face neighbors and every rank talks to at most six peers
// regardless of the grid shape. Atom migration routes per-axis on the same
// rings at neighbor-list rebuild; message payloads are real (atoms genuinely
// cross rank boundaries) and the communicator's virtual clock additionally
// yields the modeled network time of the run.
//
// Communication overlaps with compute: at every rebuild each rank reorders
// its owned atoms so the interior ones — those whose interactions cannot
// reach a ghost — come first, and the steady-state step evaluates that
// interior block on the shared worker pool while the halo refresh is in
// flight, finishing with the boundary block once ghosts land. The split is
// bitwise neutral (forces are per-atom sums either way) and the steady-state
// step stays allocation-free.
//
// The subdomain boundaries can move: every rank measures its per-step local
// compute wall time (an EWMA over a configurable window), and with
// Config.Balance enabled the engine periodically AllGathers the per-rank
// load profile and shifts the per-axis cut planes of the cluster.Cuts3D
// partition toward the load centroid — recursive-bisection boundary
// balancing. Each plane moves at most the halo width per rebalance and
// never narrows a subdomain below the halo, so migration after a shift
// stays single-ring and the halo protocol is untouched. Because the
// determinism contract (below) makes forces decomposition-invariant,
// balanced runs remain bitwise identical to static-grid runs. See
// balance.go for the controller.
//
// Determinism contract: force fields that follow the canonical-order rule —
// each owned atom's force is assembled as a sum over its neighbors in
// ascending global-id order, computed from raw (wrapped, global-box)
// coordinates — produce bitwise-identical trajectories for every grid shape
// and every cut-plane placement, because every term of every per-atom sum
// is decomposition-invariant. The LJ and blended effective-Hamiltonian rank
// force fields obey the rule directly; the Allegro adapter obeys it through
// the two-phase path (a halo exchange of per-atom gradient payloads
// followed by owner-side assembly in neighbor-row order), replacing the
// summed reverse force halo whose rank-grouped partials could never be
// decomposition-invariant.
//
// The Engine is exposed two ways: as a drop-in md.ForceField (the "bridge",
// so core.XSNNQMD and cmd/mlmd step loops run sharded unchanged), and as a
// self-contained decomposed step loop (Run) whose velocity-Verlet update
// replicates md.VelocityVerlet bitwise.
package shard

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mlmd/internal/cluster"
	"mlmd/internal/md"
	"mlmd/internal/rank"
	"mlmd/internal/shard/halo"
)

// RankFF is one rank's force evaluator. Compute fills v.F for the owned
// atoms and accumulates its local energy partials into partial (length
// PartialLen, zeroed by the engine before every evaluation). The engine
// AllReduces the partials and calls Energy on the totals.
type RankFF interface {
	PartialLen() int
	NeedsNeighborList() bool
	Compute(v *View, partial []float64)
	Energy(v *View, total []float64) float64
}

// BlockFF is the optional overlap extension of RankFF: ComputeBlock
// evaluates the owned atoms [lo, hi) only, accumulating energy partials.
// The engine calls it with the interior block while the halo refresh is in
// flight and with the boundary block after ghosts land; the per-atom
// arithmetic must not depend on the split (which holds automatically for
// canonical per-atom neighbor sums). Interior blocks (hi <= v.NInt) are
// guaranteed not to require any ghost data.
type BlockFF interface {
	ComputeBlock(v *View, lo, hi int, partial []float64)
}

// TwoPhaseFF is the optional extension for force fields whose per-atom force
// assembly needs quantities computed on other ranks (e.g. the backpropagated
// descriptor gradients of an ML potential). PhaseOne runs with positions
// fresh and fills, for every owned atom i, a fixed-width payload
// aux[i*AuxLen():(i+1)*AuxLen()] plus its energy partials; the engine then
// halo-exchanges the payloads over the same three-axis pattern as positions
// (ghost rows of aux receive their owners' payloads), and PhaseTwo assembles
// the forces of owned atoms [lo, hi) from local + ghost payloads. PhaseTwo
// interior blocks (hi <= v.NInt) run while the payload exchange is in
// flight.
type TwoPhaseFF interface {
	AuxLen() int
	PhaseOne(v *View, aux, partial []float64)
	PhaseTwo(v *View, aux []float64, lo, hi int)
}

// TwoPhaseSplitFF is the optional refinement of TwoPhaseFF for fields whose
// phase one can itself be split by atom range: the engine evaluates the
// boundary owned atoms [NInt, NOwn) first, posts the first axis's payload
// sends (the axis-0 send set contains only boundary atoms — interior atoms
// are farther than the halo from every face), and runs the interior range
// while that exchange is in flight. PhaseOneFinish is called once after
// every range of a step has run and accumulates the energy partials; it
// must produce the same bits regardless of where the split fell (the
// Allegro adapter stores per-atom energies and replays a fixed chunk
// reduction). PhaseOne must remain equivalent to PhaseOneRange over
// [0, NOwn) followed by PhaseOneFinish.
type TwoPhaseSplitFF interface {
	TwoPhaseFF
	PhaseOneRange(v *View, aux []float64, lo, hi int)
	PhaseOneFinish(v *View, partial []float64)
}

// View is the rank-local window a RankFF sees: owned atoms first
// ([0, NOwn)), ghost copies after ([NOwn, NLoc)). All coordinates are raw
// global-box positions (ghosts are bitwise copies of their owners), so
// global minimum-image arithmetic is decomposition-invariant. Owned atoms
// are ordered interior-first: [0, NInt) cannot interact with any ghost,
// [NInt, NOwn) may.
type View struct {
	Rank, Size    int
	NOwn, NInt    int
	NLoc, NGlobal int
	Lx, Ly, Lz    float64
	// Cutoff and Skin echo the engine Config (the halo is Cutoff+Skin),
	// so force fields can assert the ghost layer covers their interaction
	// range.
	Cutoff, Skin float64
	// ID maps local index to global atom id.
	ID []int32
	// X, V, F, Mass, Type are the local atom arrays (ghost V/Mass are
	// zero: ghosts are never integrated).
	X, V, F []float64
	Mass    []float64
	Type    []int
	// Weights is the engine's global per-atom blending weight array
	// (indexed by global id), nil until SetPerAtomWeights is called.
	Weights []float64
	// NL is the rank neighbor list: one row per owned atom over the local
	// atoms (built only when the force field reports NeedsNeighborList).
	NL *md.NeighborList
	// Sys aliases the local arrays as an md.System with the global box,
	// for force fields built on the md engine (e.g. Allegro).
	Sys *md.System

	lookup map[int32]int32
}

// Periods returns the global box lengths as md.Periods, for pair loops that
// take minimum images.
func (v *View) Periods() (px, py, pz md.Period) {
	return md.NewPeriod(v.Lx), md.NewPeriod(v.Ly), md.NewPeriod(v.Lz)
}

// Lookup returns the local index of global atom gid, or −1 if the atom is
// neither owned nor a ghost of this rank.
func (v *View) Lookup(gid int32) int32 {
	if li, ok := v.lookup[gid]; ok {
		return li
	}
	return -1
}

// Config describes a sharded engine.
type Config struct {
	// Grid is the Px×Py×Pz domain grid (at least one rank per axis).
	Grid [3]int
	// Cutoff and Skin size the halo (cutoff+skin) and the rebuild
	// criterion (any owned atom moving more than skin/2 triggers a
	// collective migration + halo + neighbor-list rebuild).
	Cutoff, Skin float64
	// Net is the interconnect model for the communicator's virtual clock
	// (zero value: free network).
	Net cluster.Interconnect
	// NewFF builds rank r's force field.
	NewFF func(rank int) RankFF
	// Balance enables dynamic subdomain-boundary balancing: every
	// BalanceEvery-th rebuild the engine AllGathers the per-rank load
	// profile and shifts the per-axis cut planes toward the load centroid
	// (each plane moves at most the halo width per rebalance and no
	// subdomain narrows below the halo). Trajectories stay bitwise
	// identical to the static grid; see balance.go.
	Balance bool
	// BalanceEvery is the rebalance period in rebuild events (<= 0 means
	// the default, 2: the first rebuild of a run never rebalances, so the
	// load EWMA is warm by the first shift).
	BalanceEvery int
	// BalanceWindow is the EWMA window, in force evaluations, of the
	// per-rank step-time load signal (<= 0 means the default, 32).
	BalanceWindow int
	// BalanceCost selects the per-rank load scalar the controller
	// equalizes: CostStepTime (default, measured wall time) or
	// CostOwnedAtoms (deterministic atom-count proxy).
	BalanceCost CostModel
	// Comm supplies an external communicator whose transport spans every
	// rank of the grid — the multi-process path: each OS process builds a
	// cluster.Comm over a SocketTransport and hosts the single rank
	// LocalRank. nil (the default) runs all ranks as goroutines of this
	// process over an in-process communicator built from Net.
	Comm *cluster.Comm
	// LocalRank is the rank this engine hosts when Comm is set (ignored
	// otherwise). The engine then scatters and integrates only that rank's
	// subdomain; global observables still arrive on every process through
	// the collectives, and GatherAll reassembles full trajectories on
	// rank 0.
	LocalRank int
	// Cuts optionally seeds the per-axis cut planes the decomposition
	// starts from instead of uniform ones: axis a needs Grid[a]+1
	// ascending planes with pinned ends and every subdomain at least
	// halo wide on partitioned axes (empty axes stay uniform). A resume
	// uses it to restore the balanced planes the checkpoint recorded, and
	// a shrink-and-resume to seed load-derived planes (SeedCuts) so heavy
	// subdomains start where the dead run measured them. Every process of
	// a multi-process run must pass identical planes.
	Cuts [3][]float64
}

// ParseGrid parses a "PxxPyxPz" domain-grid shape into per-axis rank
// counts. Accepted syntax: exactly three decimal integers >= 1 separated by
// the letter 'x' (case-insensitive), with surrounding whitespace ignored —
// e.g. "2x2x1", " 4X2x1 ". Anything else (missing axes, extra axes, zero,
// negative, or non-numeric counts) is an error.
func ParseGrid(s string) ([3]int, error) {
	parts := strings.Split(strings.ToLower(strings.TrimSpace(s)), "x")
	if len(parts) != 3 {
		return [3]int{}, fmt.Errorf("shard: grid %q is not of the form PxxPyxPz (e.g. 2x2x1)", s)
	}
	var g [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return [3]int{}, fmt.Errorf("shard: grid %q has a bad axis count %q", s, p)
		}
		g[i] = v
	}
	return g, nil
}

// rank operation codes dispatched to the hosted ranks.
const (
	opForce = iota
	opRun
	opGatherAll
)

// Engine is the P-rank sharded MD engine. Driver methods (NewEngine,
// ComputeForces, Run, Gather, GatherAll, SetPerAtomWeights, Close,
// Validate) must be called from a single goroutine; the rank goroutines
// only run between a dispatch and its completion, so outside those windows
// the driver owns all rank memory. A partial engine (Config.Comm +
// LocalRank) hosts a subset of the ranks — its collective driver methods
// must then be called on every process of the run.
type Engine struct {
	cfg  Config
	comm *cluster.Comm
	grid cluster.Grid3D
	p, n int
	// partial marks a multi-process engine hosting fewer ranks than the
	// grid (driver methods then see only the local subdomains).
	partial bool
	// applyRank is the lowest hosted rank — the one that applies rebalanced
	// cut planes (rank 0 in-process; every process's own rank in a
	// multi-process run, where each process updates its private Cuts3D copy
	// from the identical AllGathered load profile).
	applyRank int

	box  [3]float64 // global box lengths
	halo float64
	// cuts holds the per-axis subdomain boundaries (uniform at
	// construction; interior planes move when balancing is enabled).
	// Written only by rank 0 inside the rebalance collective, under
	// barrier discipline — everywhere else it is read-only shared state.
	cuts cluster.Cuts3D
	// bal is the boundary-balancing controller (nil when disabled).
	bal *balancer
	// ewmaAlpha is the smoothing factor of the per-rank step-time EWMA.
	ewmaAlpha float64
	// axes lists the partitioned axes (grid count > 1), ascending — the
	// exchange order x, y, z.
	axes []int

	// rs is indexed by rank; entries of ranks hosted by other processes
	// are nil. local lists the hosted states (all of rs in-process, one in
	// a multi-process worker) in runtime slot order.
	rs    []*rankState
	local []*rankState
	// rt runs the dispatched ops on the hosted ranks and latches the first
	// transport rank failure (after which the run is dead: driver
	// collectives short-circuit and report it via Err / RunResult).
	rt *rank.Runtime

	weights []float64

	// per-dispatch parameters (set by the driver, read by ranks)
	sys         *md.System
	steps       int
	dt          float64
	thKT, thTau float64
	primeNeeded bool

	// per-dispatch results (written by ranks at their own index)
	peRank, keRank []float64
	// gatherParts holds rank 0's GatherAll fan-in between the dispatch and
	// the driver-side scatter into the caller's system.
	gatherParts [][]float64

	primed bool
}

type haloSide struct {
	// sendIdx lists the local atoms (owned, or ghosts of an earlier axis)
	// whose positions this rank sends to the side's neighbor every step.
	sendIdx []int32
	// recvSlot[k] is the local ghost slot of the side's k-th incoming
	// entry (an atom can arrive twice on a 2-rank axis or through two
	// sides; duplicates are deduplicated into one slot by global id).
	recvSlot []int32
}

// axisExch is one axis's halo bookkeeping: side 0 faces the minus
// neighbor, side 1 the plus neighbor.
type axisExch struct {
	side [2]haloSide
}

type rankState struct {
	rank   int
	coords [3]int
	lo     [3]float64 // subdomain low corner (tracks the cut planes)
	w      [3]float64 // subdomain widths per axis (tracks the cut planes)
	ff     RankFF
	block  BlockFF    // non-nil when ff implements BlockFF
	two    TwoPhaseFF // non-nil when ff implements TwoPhaseFF
	// twoSplit is non-nil when two also implements TwoPhaseSplitFF; the
	// fresh-eval path then overlaps the boundary payload computation with
	// the first payload exchange axis.
	twoSplit TwoPhaseSplitFF
	auxW     int
	v        View

	ids        []int32
	x, vel, f  []float64
	mass       []float64
	typ        []int
	nOwn, nLoc int
	// nInt counts the interior owned atoms ([0, nInt) after the rebuild
	// reorder); see classifyInterior.
	nInt int

	// refX holds owned positions at the last rebuild (staleness check).
	refX        []float64
	needRebuild bool

	ax [3]axisExch
	// ex drives the per-axis ring exchanges through the shape-agnostic
	// halo layer; posF/auxF adapt the rebuild-time send/slot lists to
	// halo.Field. sendBuf stages the rebuild-time frames whose contents
	// are only discovered while packing (migration, halo build).
	ex      *halo.Exchanger
	posF    posField
	auxF    auxField
	sendBuf [2][]float64
	// aux holds the two-phase payloads (nLoc × auxW).
	aux []float64

	// interior-reorder staging for the boundary class.
	tmpIds  []int32
	tmpX    []float64
	tmpV    []float64
	tmpMass []float64
	tmpTyp  []int

	flag    []float64 // 1-element collective scratch
	partial []float64

	// Per-step load signal: stepSecs accumulates the local compute wall
	// time (force evaluation + neighbor-list builds, never communication
	// waits) of the current force step; loadEWMA smooths it across steps
	// (see balance.go).
	stepSecs float64
	loadEWMA float64
	// loadVec/loadsAll are the AllGather scratch of the rebalance
	// collective.
	loadVec  [1]float64
	loadsAll []float64
	// fpub/fall are the partial-engine bridge scratch: owned [gid|F]
	// records published through an AllGather so every process's bridge
	// system ends each force call with the full force array.
	fpub, fall []float64

	nl   *md.NeighborList
	lsys md.System

	// event counters (read driver-side through Engine.Stats)
	nRebuilds, nMigrated int64
}

// migration record layout: gid, x, y, z, vx, vy, vz, mass, type.
const migRec = 9

// halo record layout: gid, x, y, z, type.
const haloRec = 5

// NewEngine partitions sys across the domain grid and starts the rank
// goroutines. The engine keeps no reference to sys beyond the scatter;
// bridge calls (ComputeForces) may pass the same or an equal-shape system.
func NewEngine(cfg Config, sys *md.System) (*Engine, error) {
	if cfg.Cutoff <= 0 || cfg.Skin < 0 {
		return nil, fmt.Errorf("shard: bad cutoff %g / skin %g", cfg.Cutoff, cfg.Skin)
	}
	if cfg.NewFF == nil {
		return nil, fmt.Errorf("shard: Config.NewFF is required")
	}
	if sys == nil || sys.N < 1 {
		return nil, fmt.Errorf("shard: need a non-empty system")
	}
	grid, comm, localRanks, err := hostRanks(cfg.Grid, cfg.Comm, cfg.LocalRank, cfg.Net)
	if err != nil {
		return nil, err
	}
	g, p := grid.P, grid.Size()
	hw := cfg.Cutoff + cfg.Skin
	box := [3]float64{sys.Lx, sys.Ly, sys.Lz}
	var w [3]float64
	var axes []int
	for a := 0; a < 3; a++ {
		w[a] = box[a] / float64(g[a])
		if g[a] > 1 {
			if hw > w[a] {
				return nil, fmt.Errorf("shard: halo %g exceeds the axis-%d subdomain width %g (L=%g, P=%d): use a coarser grid or a smaller cutoff+skin",
					hw, a, w[a], box[a], g[a])
			}
			axes = append(axes, a)
		}
	}
	e := &Engine{
		cfg: cfg, comm: comm, grid: grid, p: p, n: sys.N,
		box: box, halo: hw, axes: axes,
		partial:   len(localRanks) < p,
		applyRank: localRanks[0],
		cuts:      cluster.UniformCuts3D(grid, box[0], box[1], box[2]),
		peRank:    make([]float64, p), keRank: make([]float64, p),
	}
	if len(cfg.Cuts[0])+len(cfg.Cuts[1])+len(cfg.Cuts[2]) > 0 {
		for a := 0; a < 3; a++ {
			if len(cfg.Cuts[a]) > 0 {
				e.cuts.C[a] = append([]float64(nil), cfg.Cuts[a]...)
			}
		}
		if err := e.cuts.Validate(0); err != nil {
			return nil, fmt.Errorf("shard: seeded cut planes: %w", err)
		}
		for _, a := range axes {
			if mw := e.cuts.MinWidth(a); mw < hw {
				return nil, fmt.Errorf("shard: seeded cut planes leave axis-%d width %g below the halo %g", a, mw, hw)
			}
		}
	}
	e.ewmaAlpha = ewmaAlpha(cfg.BalanceWindow)
	if cfg.Balance {
		e.bal = newBalancer(cfg, grid, hw)
	}
	e.rs = make([]*rankState, p)
	e.local = make([]*rankState, 0, len(localRanks))
	for _, r := range localRanks {
		rs := &rankState{
			rank: r, ff: cfg.NewFF(r),
			flag:        make([]float64, 1),
			needRebuild: true,
			ex:          halo.NewExchanger(comm, grid, r),
		}
		rs.posF.rs = rs
		rs.auxF.rs = rs
		rs.coords[0], rs.coords[1], rs.coords[2] = grid.Coords(r)
		for a := 0; a < 3; a++ {
			rs.lo[a] = e.cuts.Lo(a, rs.coords[a])
			rs.w[a] = e.cuts.Width(a, rs.coords[a])
		}
		rs.block, _ = rs.ff.(BlockFF)
		if two, ok := rs.ff.(TwoPhaseFF); ok {
			rs.two = two
			rs.twoSplit, _ = rs.ff.(TwoPhaseSplitFF)
			rs.auxW = two.AuxLen()
			if rs.auxW < 1 {
				return nil, fmt.Errorf("shard: rank %d two-phase force field reports AuxLen %d", r, rs.auxW)
			}
		}
		rs.partial = make([]float64, rs.ff.PartialLen())
		rs.nl = &md.NeighborList{Cutoff: cfg.Cutoff, Skin: cfg.Skin}
		e.rs[r] = rs
		e.local = append(e.local, rs)
	}
	e.scatter(sys)
	e.rt = rank.Start(len(e.local), e.rankOp)
	return e, nil
}

// hostRanks resolves a rank-grid shape and an optional external
// communicator into the grid topology, the communicator and the ranks this
// process hosts: the single rank local of an external communicator
// spanning the grid (a multi-process run), or every rank of an in-process
// communicator priced by net.
func hostRanks(shape [3]int, comm *cluster.Comm, local int, net cluster.Interconnect) (cluster.Grid3D, *cluster.Comm, []int, error) {
	grid, err := cluster.NewGrid3D(shape[0], shape[1], shape[2])
	if err != nil {
		return grid, nil, nil, err
	}
	p := grid.Size()
	if comm != nil {
		if comm.Size() != p {
			return grid, nil, nil, fmt.Errorf("shard: communicator size %d does not span the %dx%dx%d grid", comm.Size(), shape[0], shape[1], shape[2])
		}
		if local < 0 || local >= p {
			return grid, nil, nil, fmt.Errorf("shard: local rank %d outside [0,%d)", local, p)
		}
		return grid, comm, []int{local}, nil
	}
	comm, err = cluster.NewComm(p, net)
	if err != nil {
		return grid, nil, nil, err
	}
	hosted := make([]int, p)
	for r := range hosted {
		hosted[r] = r
	}
	return grid, comm, hosted, nil
}

// scatter assigns every atom of sys to its subdomain's rank, keeping only
// the atoms owned by a hosted rank (driver-side: the rank goroutines are
// not running yet or are parked).
func (e *Engine) scatter(sys *md.System) {
	for gid := 0; gid < sys.N; gid++ {
		// Positions are stored raw (not re-wrapped): force arithmetic must
		// see exactly the values the unsharded engine sees; only the
		// ownership decision folds into the primary cell.
		rs := e.rs[e.ownerOf(sys.X[3*gid], sys.X[3*gid+1], sys.X[3*gid+2])]
		if rs == nil {
			continue // owned by another process
		}
		rs.ids = append(rs.ids, int32(gid))
		rs.x = append(rs.x, sys.X[3*gid], sys.X[3*gid+1], sys.X[3*gid+2])
		rs.vel = append(rs.vel, sys.V[3*gid], sys.V[3*gid+1], sys.V[3*gid+2])
		rs.f = append(rs.f, 0, 0, 0)
		rs.mass = append(rs.mass, sys.Mass[gid])
		rs.typ = append(rs.typ, sys.Type[gid])
	}
	for _, rs := range e.local {
		rs.nOwn = len(rs.ids)
		rs.nLoc = rs.nOwn
		rs.nInt = 0
		rs.needRebuild = true
		e.refreshView(rs)
	}
}

// gridCoord returns the grid coordinate of position pos along axis a under
// the current (possibly balanced) cut planes.
func (e *Engine) gridCoord(pos float64, a int) int {
	return e.cuts.Index(a, wrap1(pos, e.box[a]))
}

// ownerOf returns the rank owning position (x, y, z).
func (e *Engine) ownerOf(x, y, z float64) int {
	return e.grid.Rank(e.gridCoord(x, 0), e.gridCoord(y, 1), e.gridCoord(z, 2))
}

// refreshView re-slices the View and local md.System after the local atom
// count changed.
func (e *Engine) refreshView(rs *rankState) {
	rs.v = View{
		Rank: rs.rank, Size: e.p,
		NOwn: rs.nOwn, NInt: rs.nInt, NLoc: rs.nLoc, NGlobal: e.n,
		Lx: e.box[0], Ly: e.box[1], Lz: e.box[2],
		Cutoff: e.cfg.Cutoff, Skin: e.cfg.Skin,
		ID: rs.ids[:rs.nLoc], X: rs.x[:3*rs.nLoc], V: rs.vel[:3*rs.nLoc],
		F: rs.f[:3*rs.nLoc], Mass: rs.mass[:rs.nLoc], Type: rs.typ[:rs.nLoc],
		Weights: e.weights, NL: rs.nl,
		lookup: rs.v.lookup,
	}
	rs.lsys = md.System{
		N: rs.nLoc, Lx: e.box[0], Ly: e.box[1], Lz: e.box[2],
		X: rs.v.X, V: rs.v.V, F: rs.v.F, Mass: rs.v.Mass, Type: rs.v.Type,
	}
	rs.v.Sys = &rs.lsys
	if rs.auxW > 0 {
		rs.aux = resizeF64(rs.aux, rs.nLoc*rs.auxW)
	}
}

// rankOp runs one dispatched operation on the hosted rank in runtime slot
// slot.
func (e *Engine) rankOp(slot, op int) {
	rs := e.local[slot]
	switch op {
	case opForce:
		e.bridgeForce(rs)
	case opRun:
		e.runSteps(rs)
	case opGatherAll:
		e.gatherAllRank(rs)
	}
}

// Err returns the first communicator rank-failure observed by any hosted
// rank (nil while the mesh is healthy). Once non-nil the distributed state
// is unrecoverable in place: the driver should stop, and a long run should
// restart from its last checkpoint (mlmd -resume).
func (e *Engine) Err() error { return e.rt.Err() }

// Close stops the rank goroutines (safe after a failure, a no-op when
// repeated). The engine must not be used afterwards.
func (e *Engine) Close() { e.rt.Close() }

// Ranks returns the rank count P.
func (e *Engine) Ranks() int { return e.p }

// Grid returns the Px×Py×Pz domain grid shape.
func (e *Engine) Grid() [3]int { return e.grid.P }

// ModeledCommSeconds returns the communicator's virtual wall clock — the
// alpha-beta modeled communication time accumulated by the run.
func (e *Engine) ModeledCommSeconds() float64 { return e.comm.MaxClock() }

// SetPerAtomWeights installs the global per-atom blending weights (copied,
// clamped to [0,1] exactly like xsnn.Blend) read by weight-aware rank force
// fields such as the blended effective Hamiltonian.
func (e *Engine) SetPerAtomWeights(w []float64) {
	if len(w) != e.n {
		panic("shard: per-atom weight length mismatch")
	}
	e.weights = append(e.weights[:0], w...)
	for i, v := range e.weights {
		if v < 0 {
			e.weights[i] = 0
		} else if v > 1 {
			e.weights[i] = 1
		}
	}
	for _, rs := range e.local {
		rs.v.Weights = e.weights
	}
	e.primed = false
}

// ComputeForces implements md.ForceField: positions are pulled from sys for
// each rank's owned atoms, ghosts are refreshed (or the decomposition is
// rebuilt) over the communicator, forces are evaluated per rank on the
// shared worker pool, owned forces are written back to sys.F, and the
// global potential energy is AllReduced and returned. sys must have the
// same atom count and box as the scattered system.
func (e *Engine) ComputeForces(sys *md.System) float64 {
	if sys.N != e.n || sys.Lx != e.box[0] || sys.Ly != e.box[1] || sys.Lz != e.box[2] {
		panic("shard: bridge system shape does not match the scattered system")
	}
	e.sys = sys
	e.rt.Dispatch(opForce)
	e.sys = nil
	e.primed = true
	return e.peRank[e.applyRank]
}

// bridgeForce is the rank side of ComputeForces. A partial engine closes
// with a force AllGather: every rank publishes its owned [gid|F] records
// and every process writes the full set into its bridge system, so the
// replicated global integration of a multi-process run sees the complete
// force array — as copies of the owners' values, never sums, which keeps
// the bridge bitwise identical to the in-process path.
func (e *Engine) bridgeForce(rs *rankState) {
	sys := e.sys
	for i := 0; i < rs.nOwn; i++ {
		g := int(rs.ids[i])
		rs.x[3*i] = sys.X[3*g]
		rs.x[3*i+1] = sys.X[3*g+1]
		rs.x[3*i+2] = sys.X[3*g+2]
	}
	e.forceStep(rs)
	for i := 0; i < rs.nOwn; i++ {
		g := int(rs.ids[i])
		sys.F[3*g] = rs.f[3*i]
		sys.F[3*g+1] = rs.f[3*i+1]
		sys.F[3*g+2] = rs.f[3*i+2]
	}
	if !e.partial {
		return
	}
	rs.fpub = rs.fpub[:0]
	for i := 0; i < rs.nOwn; i++ {
		rs.fpub = append(rs.fpub, float64(rs.ids[i]), rs.f[3*i], rs.f[3*i+1], rs.f[3*i+2])
	}
	rs.fall = e.comm.AllGather(rs.rank, rs.fpub, rs.fall)
	for k := 0; k+4 <= len(rs.fall); k += 4 {
		g := int(rs.fall[k])
		sys.F[3*g] = rs.fall[k+1]
		sys.F[3*g+1] = rs.fall[k+2]
		sys.F[3*g+2] = rs.fall[k+3]
	}
}

// RunResult carries the globally reduced observables of a Run.
type RunResult struct {
	PE, KE, Temperature float64
	// Err is non-nil when a peer rank of a multi-process run died during
	// (or before) the dispatch: the observables are then meaningless and
	// the distributed state is unrecoverable — restart from a checkpoint.
	// It carries the *cluster.RankFailedError naming the lost rank.
	Err error
}

// Run advances the decomposed system steps velocity-Verlet steps of dt,
// with an optional Berendsen thermostat toward thermal energy kT with time
// constant tau (tau <= 0 disables it; the NVE path touches no velocities
// beyond the Verlet kicks). The per-step update replicates
// md.VelocityVerlet bitwise; PE/KE/temperature come from AllReduceSum.
// Run(0, ...) evaluates forces and observables without stepping (a prime).
// State stays distributed — use Gather to pull it back into a System.
func (e *Engine) Run(steps int, dt, kT, tau float64) RunResult {
	if err := e.Err(); err != nil {
		return RunResult{Err: err}
	}
	e.steps, e.dt, e.thKT, e.thTau = steps, dt, kT, tau
	e.primeNeeded = !e.primed
	e.rt.Dispatch(opRun)
	e.primed = true
	return RunResult{
		PE:          e.peRank[e.applyRank],
		KE:          e.keRank[e.applyRank],
		Temperature: 2 * e.keRank[e.applyRank] / (3 * float64(e.n)),
		Err:         e.Err(),
	}
}

// runSteps is the rank side of Run. A zero-step dispatch re-evaluates
// forces even when already primed, so Run(0, ...) always returns a PE
// consistent with the current configuration (never a stale value from an
// earlier dispatch).
//
//mlmd:hotpath
func (e *Engine) runSteps(rs *rankState) {
	if e.primeNeeded || e.steps == 0 {
		e.forceStep(rs)
	}
	for s := 0; s < e.steps; s++ {
		dt := e.dt
		for i := 0; i < rs.nOwn; i++ {
			im := 1 / rs.mass[i]
			for d := 0; d < 3; d++ {
				rs.vel[3*i+d] += 0.5 * dt * rs.f[3*i+d] * im
				rs.x[3*i+d] += dt * rs.vel[3*i+d]
			}
		}
		for i := 0; i < rs.nOwn; i++ {
			rs.x[3*i] = wrap1(rs.x[3*i], e.box[0])
			rs.x[3*i+1] = wrap1(rs.x[3*i+1], e.box[1])
			rs.x[3*i+2] = wrap1(rs.x[3*i+2], e.box[2])
		}
		e.forceStep(rs)
		for i := 0; i < rs.nOwn; i++ {
			im := 1 / rs.mass[i]
			for d := 0; d < 3; d++ {
				rs.vel[3*i+d] += 0.5 * dt * rs.f[3*i+d] * im
			}
		}
		if e.thTau > 0 {
			cur := 2 * e.localKE(rs) / (3 * float64(e.n))
			if cur > 0 {
				lambda := md.BerendsenLambda(cur, e.thKT, e.thTau, dt)
				for i := 0; i < 3*rs.nOwn; i++ {
					rs.vel[i] *= lambda
				}
			}
		}
	}
	e.keRank[rs.rank] = e.localKE(rs)
}

// localKE returns the globally AllReduced kinetic energy (every rank gets
// the total; the partial sum follows md.KineticEnergy's per-atom form).
//
//mlmd:hotpath
func (e *Engine) localKE(rs *rankState) float64 {
	var ke float64
	for i := 0; i < rs.nOwn; i++ {
		v2 := rs.vel[3*i]*rs.vel[3*i] + rs.vel[3*i+1]*rs.vel[3*i+1] + rs.vel[3*i+2]*rs.vel[3*i+2]
		ke += 0.5 * rs.mass[i] * v2
	}
	rs.flag[0] = ke
	e.comm.AllReduceSumInPlace(rs.rank, rs.flag)
	return rs.flag[0]
}

// forceStep is one collective force evaluation: decide between the cheap
// overlapped ghost refresh and the full rebuild, run the rank force field,
// AllReduce the energy partials and record the global PE.
//
//mlmd:hotpath
func (e *Engine) forceStep(rs *rankState) {
	for i := range rs.partial {
		rs.partial[i] = 0
	}
	rs.stepSecs = 0
	if e.checkStale(rs) {
		e.rebuild(rs)
		e.evalFresh(rs)
	} else {
		e.evalSteady(rs)
	}
	e.comm.AllReduceSumInPlace(rs.rank, rs.partial)
	e.peRank[rs.rank] = rs.ff.Energy(&rs.v, rs.partial)
	// Fold this step's local compute time into the rank's load EWMA (the
	// balancing signal; also the imbalance diagnostic of static runs).
	if rs.loadEWMA == 0 {
		rs.loadEWMA = rs.stepSecs
	} else {
		rs.loadEWMA += e.ewmaAlpha * (rs.stepSecs - rs.loadEWMA)
	}
}

// checkStale decides collectively whether a rebuild is due: any rank whose
// owned atoms moved more than skin/2 since its last rebuild forces every
// rank to rebuild — the same criterion as md.NeighborList.Stale, made
// global by an AllReduce.
//
//mlmd:hotpath
func (e *Engine) checkStale(rs *rankState) bool {
	stale := 0.0
	if rs.needRebuild {
		stale = 1
	} else {
		lim2 := e.cfg.Skin * e.cfg.Skin / 4
		px, py, pz := md.NewPeriod(e.box[0]), md.NewPeriod(e.box[1]), md.NewPeriod(e.box[2])
		for i := 0; i < rs.nOwn; i++ {
			dx := px.MinImage(rs.x[3*i] - rs.refX[3*i])
			dy := py.MinImage(rs.x[3*i+1] - rs.refX[3*i+1])
			dz := pz.MinImage(rs.x[3*i+2] - rs.refX[3*i+2])
			if dx*dx+dy*dy+dz*dz > lim2 {
				stale = 1
				break
			}
		}
	}
	rs.flag[0] = stale
	e.comm.AllReduceSumInPlace(rs.rank, rs.flag)
	return rs.flag[0] > 0
}

// evalSteady is the steady-state path: ghost positions are stale but the
// decomposition is valid. Block force fields evaluate their interior atoms
// while the first axis's position exchange is in flight; everything else
// refreshes fully first.
//
//mlmd:hotpath
func (e *Engine) evalSteady(rs *rankState) {
	if rs.block != nil && rs.nInt > 0 && len(e.axes) > 0 {
		a0 := e.axes[0]
		e.postAxisSends(rs, a0)
		t0 := time.Now()
		rs.block.ComputeBlock(&rs.v, 0, rs.nInt, rs.partial)
		rs.stepSecs += time.Since(t0).Seconds()
		e.recvAxis(rs, a0)
		for _, a := range e.axes[1:] {
			e.postAxisSends(rs, a)
			e.recvAxis(rs, a)
		}
		t0 = time.Now()
		rs.block.ComputeBlock(&rs.v, rs.nInt, rs.nOwn, rs.partial)
		rs.stepSecs += time.Since(t0).Seconds()
		return
	}
	e.refreshGhosts(rs)
	e.evalFresh(rs)
}

// evalFresh evaluates forces with ghost positions current (the rebuild path
// and the non-overlapped steady path). Two-phase force fields run their
// payload exchange here, overlapped with interior assembly.
func (e *Engine) evalFresh(rs *rankState) {
	if rs.two == nil {
		t0 := time.Now()
		rs.ff.Compute(&rs.v, rs.partial)
		rs.stepSecs += time.Since(t0).Seconds()
		return
	}
	if rs.twoSplit != nil && rs.nInt > 0 && len(e.axes) > 0 {
		// Split phase one: boundary payloads first, so the first axis's
		// sends (boundary atoms only) go out while the interior — usually
		// the bulk of the rank — is still being evaluated.
		a0 := e.axes[0]
		t0 := time.Now()
		rs.twoSplit.PhaseOneRange(&rs.v, rs.aux, rs.nInt, rs.nOwn)
		rs.stepSecs += time.Since(t0).Seconds()
		e.postAuxSends(rs, a0)
		t0 = time.Now()
		rs.twoSplit.PhaseOneRange(&rs.v, rs.aux, 0, rs.nInt)
		rs.twoSplit.PhaseOneFinish(&rs.v, rs.partial)
		rs.two.PhaseTwo(&rs.v, rs.aux, 0, rs.nInt)
		rs.stepSecs += time.Since(t0).Seconds()
		e.recvAuxAxis(rs, a0)
		for _, a := range e.axes[1:] {
			e.postAuxSends(rs, a)
			e.recvAuxAxis(rs, a)
		}
		t0 = time.Now()
		rs.two.PhaseTwo(&rs.v, rs.aux, rs.nInt, rs.nOwn)
		rs.stepSecs += time.Since(t0).Seconds()
		return
	}
	t0 := time.Now()
	rs.two.PhaseOne(&rs.v, rs.aux, rs.partial)
	rs.stepSecs += time.Since(t0).Seconds()
	if rs.nInt > 0 && len(e.axes) > 0 {
		a0 := e.axes[0]
		e.postAuxSends(rs, a0)
		t0 = time.Now()
		rs.two.PhaseTwo(&rs.v, rs.aux, 0, rs.nInt)
		rs.stepSecs += time.Since(t0).Seconds()
		e.recvAuxAxis(rs, a0)
		for _, a := range e.axes[1:] {
			e.postAuxSends(rs, a)
			e.recvAuxAxis(rs, a)
		}
		t0 = time.Now()
		rs.two.PhaseTwo(&rs.v, rs.aux, rs.nInt, rs.nOwn)
		rs.stepSecs += time.Since(t0).Seconds()
		return
	}
	for _, a := range e.axes {
		e.postAuxSends(rs, a)
		e.recvAuxAxis(rs, a)
	}
	t0 = time.Now()
	rs.two.PhaseTwo(&rs.v, rs.aux, 0, rs.nOwn)
	rs.stepSecs += time.Since(t0).Seconds()
}

// rebuild is the collective event path: rebalance the cut planes if due
// (atoms whose subdomain the shift changed become migration traffic),
// migrate strayed atoms to their new owners per axis, reorder owned atoms
// interior-first, rebuild the ghost halo over the three axis exchanges,
// record the staleness reference, and rebuild the rank neighbor list if the
// force field wants one.
func (e *Engine) rebuild(rs *rankState) {
	rs.nRebuilds++
	e.maybeRebalance(rs)
	e.migrate(rs)
	e.classifyInterior(rs)
	e.buildHalo(rs)
	rs.refX = resizeF64(rs.refX, 3*rs.nOwn)
	copy(rs.refX, rs.x[:3*rs.nOwn])
	e.refreshView(rs)
	if rs.ff.NeedsNeighborList() {
		t0 := time.Now()
		rs.nl.BuildOwned(rs.v.Sys, rs.v.ID, rs.v.NOwn)
		rs.stepSecs += time.Since(t0).Seconds()
		// The belt over classifyInterior's geometric braces: if
		// floating-point edge effects ever put a ghost into an interior
		// atom's neighbor row, overlap is disabled for this rebuild window
		// rather than risking a stale-ghost read. (The geometric margin
		// makes this effectively unreachable.)
		for _, j := range rs.nl.Rows(0, rs.nInt) {
			if int(j) >= rs.nOwn {
				rs.nInt = 0
				rs.v.NInt = 0
				break
			}
		}
	}
	rs.needRebuild = false
}

// classifyInterior reorders the owned atoms so that the interior ones —
// those farther than halo (= cutoff+skin) from every face of the subdomain
// along each partitioned axis — come first, and records the split point
// nInt. Between rebuilds every atom drifts at most skin/2, so an interior
// atom's interactions can never reach a ghost: its forces are computable
// before the halo refresh lands. The reorder is stable within each class;
// owned ordering is free under the determinism contract (all canonical
// sums are keyed by global id, not local index).
func (e *Engine) classifyInterior(rs *rankState) {
	if len(e.axes) == 0 {
		rs.nInt = rs.nOwn
		return
	}
	rs.tmpIds = resizeI32(rs.tmpIds, rs.nOwn)
	rs.tmpX = resizeF64(rs.tmpX, 3*rs.nOwn)
	rs.tmpV = resizeF64(rs.tmpV, 3*rs.nOwn)
	rs.tmpMass = resizeF64(rs.tmpMass, rs.nOwn)
	if cap(rs.tmpTyp) < rs.nOwn {
		rs.tmpTyp = make([]int, rs.nOwn)
	}
	rs.tmpTyp = rs.tmpTyp[:rs.nOwn]
	keep, nb := 0, 0
	for i := 0; i < rs.nOwn; i++ {
		interior := true
		for _, a := range e.axes {
			// wrap1, not minImage1: post-migration owned atoms sit in
			// [lo, lo+w) along every partitioned axis, so folding into
			// [0, box) measures the face distance exactly even when a
			// balanced subdomain is wider than half the box (minImage1
			// would fold the far half negative there).
			d := wrap1(rs.x[3*i+a]-rs.lo[a], e.box[a])
			if d <= e.halo || rs.w[a]-d <= e.halo {
				interior = false
				break
			}
		}
		if interior {
			if keep != i {
				rs.ids[keep] = rs.ids[i]
				copy(rs.x[3*keep:3*keep+3], rs.x[3*i:3*i+3])
				copy(rs.vel[3*keep:3*keep+3], rs.vel[3*i:3*i+3])
				rs.mass[keep] = rs.mass[i]
				rs.typ[keep] = rs.typ[i]
			}
			keep++
		} else {
			rs.tmpIds[nb] = rs.ids[i]
			copy(rs.tmpX[3*nb:3*nb+3], rs.x[3*i:3*i+3])
			copy(rs.tmpV[3*nb:3*nb+3], rs.vel[3*i:3*i+3])
			rs.tmpMass[nb] = rs.mass[i]
			rs.tmpTyp[nb] = rs.typ[i]
			nb++
		}
	}
	copy(rs.ids[keep:rs.nOwn], rs.tmpIds[:nb])
	copy(rs.x[3*keep:3*rs.nOwn], rs.tmpX[:3*nb])
	copy(rs.vel[3*keep:3*rs.nOwn], rs.tmpV[:3*nb])
	copy(rs.mass[keep:rs.nOwn], rs.tmpMass[:nb])
	copy(rs.typ[keep:rs.nOwn], rs.tmpTyp[:nb])
	rs.nInt = keep
}

// migrate routes owned atoms whose subdomain changed to their new owners,
// one axis at a time on that axis's ring (x, then y, then z — the same
// pattern as the halo, so diagonal moves take one hop per differing axis).
// Each axis repeats single-hop rounds toward the shorter ring direction
// until a global AllReduce reports every atom home along that axis. In
// steady dynamics (moves bounded by the skin criterion) one round per axis
// suffices; arbitrary teleports — e.g. a bridge caller handing in a
// brand-new configuration — converge in at most ⌈P_axis/2⌉ rounds per axis.
func (e *Engine) migrate(rs *rankState) {
	for _, a := range e.axes {
		pa := e.grid.P[a]
		ca := rs.coords[a]
		for {
			sendM := rs.sendBuf[0][:0]
			sendP := rs.sendBuf[1][:0]
			keep := 0
			for i := 0; i < rs.nOwn; i++ {
				t := e.gridCoord(rs.x[3*i+a], a)
				if t == ca {
					if keep != i {
						rs.ids[keep] = rs.ids[i]
						copy(rs.x[3*keep:3*keep+3], rs.x[3*i:3*i+3])
						copy(rs.vel[3*keep:3*keep+3], rs.vel[3*i:3*i+3])
						rs.mass[keep] = rs.mass[i]
						rs.typ[keep] = rs.typ[i]
					}
					keep++
					continue
				}
				rec := [migRec]float64{
					float64(rs.ids[i]),
					rs.x[3*i], rs.x[3*i+1], rs.x[3*i+2],
					rs.vel[3*i], rs.vel[3*i+1], rs.vel[3*i+2],
					rs.mass[i], float64(rs.typ[i]),
				}
				if ringDirRight(ca, t, pa) {
					sendP = append(sendP, rec[:]...)
				} else {
					sendM = append(sendM, rec[:]...)
				}
			}
			rs.sendBuf[0], rs.sendBuf[1] = sendM, sendP
			rs.nOwn = keep
			rm, rp := rs.ex.Ring(a, sendM, sendP)
			arrived := 0.0
			for _, buf := range [2][]float64{rm, rp} {
				for k := 0; k+migRec <= len(buf); k += migRec {
					i := rs.nOwn
					rs.ids = appendI32At(rs.ids, i, int32(buf[k]))
					rs.x = append3At(rs.x, i, buf[k+1], buf[k+2], buf[k+3])
					rs.vel = append3At(rs.vel, i, buf[k+4], buf[k+5], buf[k+6])
					rs.f = append3At(rs.f, i, 0, 0, 0)
					rs.mass = appendF64At(rs.mass, i, buf[k+7])
					rs.typ = appendIntAt(rs.typ, i, int(buf[k+8]))
					rs.nOwn++
					rs.nMigrated++
					if e.gridCoord(buf[k+1+a], a) != ca {
						arrived++ // still in transit along this axis
					}
				}
			}
			rs.flag[0] = arrived
			e.comm.AllReduceSumInPlace(rs.rank, rs.flag)
			if rs.flag[0] == 0 {
				break
			}
		}
	}
}

// ringDirRight reports whether the shorter ring path from rank to target
// goes right (+1).
func ringDirRight(rank, target, p int) bool {
	return (target-rank+p)%p <= p/2
}

// buildHalo rebuilds the ghost layer with one ring exchange per partitioned
// axis: every local atom — owned, or a ghost absorbed from an earlier axis
// (which is what carries edge and corner ghosts around without extra
// neighbor pairs) — within halo of an axis face is sent to that side's
// neighbor; received records become ghost atoms, deduplicated by global id
// (on a 2-rank axis both faces share one neighbor, so the same atom can
// arrive twice).
func (e *Engine) buildHalo(rs *rankState) {
	rs.nLoc = rs.nOwn
	if rs.v.lookup == nil {
		rs.v.lookup = make(map[int32]int32, rs.nOwn*2)
	}
	clear(rs.v.lookup)
	for i := 0; i < rs.nOwn; i++ {
		rs.v.lookup[rs.ids[i]] = int32(i)
	}
	for a := 0; a < 3; a++ {
		for s := 0; s < 2; s++ {
			rs.ax[a].side[s].sendIdx = rs.ax[a].side[s].sendIdx[:0]
			rs.ax[a].side[s].recvSlot = rs.ax[a].side[s].recvSlot[:0]
		}
	}
	for _, a := range e.axes {
		la, wa := rs.lo[a], rs.w[a]
		ax := &rs.ax[a]
		for i := 0; i < rs.nLoc; i++ {
			// wrap1 for the same reason as classifyInterior: every local
			// atom — owned, or a ghost of an earlier axis, which lives in
			// this rank's slab along axis a — is in [la, la+wa) here, and
			// wide balanced subdomains must not fold the far half.
			d := wrap1(rs.x[3*i+a]-la, e.box[a])
			if d <= e.halo {
				ax.side[0].sendIdx = append(ax.side[0].sendIdx, int32(i))
			}
			if wa-d <= e.halo {
				ax.side[1].sendIdx = append(ax.side[1].sendIdx, int32(i))
			}
		}
		for s := 0; s < 2; s++ {
			buf := rs.sendBuf[s][:0]
			for _, i := range ax.side[s].sendIdx {
				buf = append(buf, float64(rs.ids[i]), rs.x[3*i], rs.x[3*i+1], rs.x[3*i+2], float64(rs.typ[i]))
			}
			rs.sendBuf[s] = buf
		}
		rm, rp := rs.ex.Ring(a, rs.sendBuf[0], rs.sendBuf[1])
		for s, buf := range [2][]float64{rm, rp} {
			side := &ax.side[s]
			for k := 0; k+haloRec <= len(buf); k += haloRec {
				gid := int32(buf[k])
				if slot, ok := rs.v.lookup[gid]; ok {
					if int(slot) < rs.nOwn {
						panic("shard: received an owned atom as ghost")
					}
					side.recvSlot = append(side.recvSlot, slot)
					continue
				}
				slot := rs.nLoc
				rs.ids = appendI32At(rs.ids, slot, gid)
				rs.x = append3At(rs.x, slot, buf[k+1], buf[k+2], buf[k+3])
				rs.vel = append3At(rs.vel, slot, 0, 0, 0)
				rs.f = append3At(rs.f, slot, 0, 0, 0)
				rs.mass = appendF64At(rs.mass, slot, 0)
				rs.typ = appendIntAt(rs.typ, slot, int(buf[k+4]))
				rs.v.lookup[gid] = int32(slot)
				side.recvSlot = append(side.recvSlot, int32(slot))
				rs.nLoc++
			}
		}
	}
}

// posField adapts the rebuild-time position send/slot lists to
// halo.Field: Pack streams the owned (or earlier-axis ghost) positions of
// a side's send list, Unpack lands received positions in the fixed ghost
// slots recorded at rebuild. Allocation-free once frames reach steady
// size.
type posField struct{ rs *rankState }

// Pack implements halo.Field over the axis/side position send list.
//
//mlmd:hotpath
func (p *posField) Pack(axis, side int, buf []float64) []float64 {
	rs := p.rs
	for _, i := range rs.ax[axis].side[side].sendIdx {
		buf = append(buf, rs.x[3*i], rs.x[3*i+1], rs.x[3*i+2])
	}
	return buf
}

// Unpack implements halo.Field over the axis/side ghost slot list.
//
//mlmd:hotpath
func (p *posField) Unpack(axis, side int, buf []float64) {
	rs := p.rs
	for k, slot := range rs.ax[axis].side[side].recvSlot {
		rs.x[3*slot] = buf[3*k]
		rs.x[3*slot+1] = buf[3*k+1]
		rs.x[3*slot+2] = buf[3*k+2]
	}
}

// auxField adapts the two-phase payload rows (aux, nLoc × auxW) to
// halo.Field over the same send/slot lists as positions, so ghost rows
// forward payloads received on earlier axes exactly like positions.
type auxField struct{ rs *rankState }

// Pack implements halo.Field over the axis/side payload send list.
//
//mlmd:hotpath
func (p *auxField) Pack(axis, side int, buf []float64) []float64 {
	rs := p.rs
	w := rs.auxW
	for _, i := range rs.ax[axis].side[side].sendIdx {
		buf = append(buf, rs.aux[int(i)*w:(int(i)+1)*w]...)
	}
	return buf
}

// Unpack implements halo.Field over the axis/side payload slot list.
//
//mlmd:hotpath
func (p *auxField) Unpack(axis, side int, buf []float64) {
	rs := p.rs
	w := rs.auxW
	for k, slot := range rs.ax[axis].side[side].recvSlot {
		copy(rs.aux[int(slot)*w:(int(slot)+1)*w], buf[k*w:(k+1)*w])
	}
}

// postAxisSends posts axis a's steady-state position messages through the
// halo layer.
//
//mlmd:hotpath
func (e *Engine) postAxisSends(rs *rankState, a int) {
	rs.ex.Post(&rs.posF, a)
}

// recvAxis completes axis a's position exchange.
//
//mlmd:hotpath
func (e *Engine) recvAxis(rs *rankState, a int) {
	rs.ex.Finish(&rs.posF, a)
}

// refreshGhosts is the full (non-overlapped) steady-state halo refresh:
// three sequential per-axis exchanges, each forwarding the ghost positions
// the previous axis just delivered.
//
//mlmd:hotpath
func (e *Engine) refreshGhosts(rs *rankState) {
	for _, a := range e.axes {
		e.postAxisSends(rs, a)
		e.recvAxis(rs, a)
	}
}

// postAuxSends posts axis a's payload messages for the two-phase force
// path through the halo layer.
//
//mlmd:hotpath
func (e *Engine) postAuxSends(rs *rankState, a int) {
	rs.ex.Post(&rs.auxF, a)
}

// recvAuxAxis completes axis a's payload exchange into the ghost aux rows.
//
//mlmd:hotpath
func (e *Engine) recvAuxAxis(rs *rankState, a int) {
	rs.ex.Finish(&rs.auxF, a)
}

// Stats reports decomposition event counts summed over the hosted ranks:
// collective rebuilds (each rank counts every rebuild event) and atoms
// received through migration messages. Driver-side; a partial engine
// reports only its own ranks' migration traffic.
func (e *Engine) Stats() (rebuilds, migratedAtoms int64) {
	for _, rs := range e.local {
		if rs.nRebuilds > rebuilds {
			rebuilds = rs.nRebuilds
		}
		migratedAtoms += rs.nMigrated
	}
	return
}

// Gather copies the hosted ranks' positions, velocities and forces back
// into sys (by global id). Driver-side; a partial engine fills only the
// atoms its ranks own — use GatherAll (a collective) to reassemble the
// full system on rank 0.
func (e *Engine) Gather(sys *md.System) {
	if sys.N != e.n {
		panic("shard: gather system size mismatch")
	}
	for _, rs := range e.local {
		for i := 0; i < rs.nOwn; i++ {
			g := int(rs.ids[i])
			copy(sys.X[3*g:3*g+3], rs.x[3*i:3*i+3])
			copy(sys.V[3*g:3*g+3], rs.vel[3*i:3*i+3])
			copy(sys.F[3*g:3*g+3], rs.f[3*i:3*i+3])
		}
	}
}

// gatherRec is the GatherAll record layout: gid, x, y, z, vx, vy, vz, fx,
// fy, fz.
const gatherRec = 10

// GatherAll reassembles the full distributed state into sys on rank 0's
// process through a collective gather (every process of a multi-process
// run must call it; processes not hosting rank 0 leave sys untouched).
// On an in-process engine it equals Gather. After a rank failure (Err
// non-nil) it returns with sys untouched — the collective cannot complete.
func (e *Engine) GatherAll(sys *md.System) {
	if sys.N != e.n {
		panic("shard: gather system size mismatch")
	}
	if !e.partial {
		e.Gather(sys)
		return
	}
	if e.Err() != nil {
		return
	}
	e.rt.Dispatch(opGatherAll)
	if e.gatherParts == nil {
		return
	}
	for _, part := range e.gatherParts {
		for k := 0; k+gatherRec <= len(part); k += gatherRec {
			g := int(part[k])
			copy(sys.X[3*g:3*g+3], part[k+1:k+4])
			copy(sys.V[3*g:3*g+3], part[k+4:k+7])
			copy(sys.F[3*g:3*g+3], part[k+7:k+10])
		}
	}
	e.gatherParts = nil
}

// gatherAllRank is the rank side of GatherAll.
func (e *Engine) gatherAllRank(rs *rankState) {
	buf := make([]float64, 0, rs.nOwn*gatherRec)
	for i := 0; i < rs.nOwn; i++ {
		buf = append(buf, float64(rs.ids[i]))
		buf = append(buf, rs.x[3*i:3*i+3]...)
		buf = append(buf, rs.vel[3*i:3*i+3]...)
		buf = append(buf, rs.f[3*i:3*i+3]...)
	}
	parts := e.comm.Gather(rs.rank, 0, buf)
	if rs.rank == 0 {
		e.gatherParts = parts
	}
}

// Validate checks the decomposition invariants (driver-side, for tests):
// the cut planes are well-formed (pinned ends, ascending, every subdomain
// at least a halo wide) and each rank's cached corner/width tracks them,
// the owned sets partition the global ids, every owned atom sat in its
// rank's subdomain (along all three grid axes) at the last rebuild, ghost
// bookkeeping is consistent, every ghost lies within cutoff+skin (plus the
// skin/2 drift allowance) of the owning subdomain, and the interior split
// point is in range. Error messages name ranks as "rank r (ix,iy,iz)" so a
// balancing failure points at the grid cell, not just the linear id.
func (e *Engine) Validate() error {
	if err := e.cuts.Validate(e.halo - 1e-12); err != nil {
		return fmt.Errorf("shard: %v", err)
	}
	seen := make([]int, e.n)
	for _, rs := range e.local {
		at := fmt.Sprintf("rank %d (%d,%d,%d)", rs.rank, rs.coords[0], rs.coords[1], rs.coords[2])
		for a := 0; a < 3; a++ {
			if rs.lo[a] != e.cuts.Lo(a, rs.coords[a]) || rs.w[a] != e.cuts.Width(a, rs.coords[a]) {
				return fmt.Errorf("shard: %s subdomain [%g,+%g) does not track the axis-%d cut planes [%g,+%g)",
					at, rs.lo[a], rs.w[a], a, e.cuts.Lo(a, rs.coords[a]), e.cuts.Width(a, rs.coords[a]))
			}
		}
		if rs.nOwn > rs.nLoc || len(rs.ids) < rs.nLoc {
			return fmt.Errorf("shard: %s counts nOwn=%d nLoc=%d len(ids)=%d", at, rs.nOwn, rs.nLoc, len(rs.ids))
		}
		if rs.nInt < 0 || rs.nInt > rs.nOwn {
			return fmt.Errorf("shard: %s interior split %d outside [0,%d]", at, rs.nInt, rs.nOwn)
		}
		for i := 0; i < rs.nOwn; i++ {
			g := int(rs.ids[i])
			if g < 0 || g >= e.n {
				return fmt.Errorf("shard: %s owns bad id %d", at, g)
			}
			seen[g]++
			if !rs.needRebuild {
				for a := 0; a < 3; a++ {
					if e.gridCoord(rs.refX[3*i+a], a) != rs.coords[a] {
						return fmt.Errorf("shard: %s owns atom %d outside its subdomain along axis %d at rebuild", at, g, a)
					}
				}
			}
		}
		slack := e.halo + e.cfg.Skin/2 + 1e-12
		for i := rs.nOwn; i < rs.nLoc; i++ {
			slot, ok := rs.v.lookup[rs.ids[i]]
			if !ok || int(slot) != i {
				return fmt.Errorf("shard: %s ghost %d lookup broken", at, rs.ids[i])
			}
			for _, a := range e.axes {
				// Circular distance from the subdomain arc [lo, lo+w):
				// fold into [0, box), then a point outside the arc is
				// beyond the high face by d−w or beyond the low face
				// through the wrap by box−d, whichever is nearer.
				d := wrap1(rs.x[3*i+a]-rs.lo[a], e.box[a])
				beyond := 0.0
				if d > rs.w[a] {
					beyond = d - rs.w[a]
					if wrapDist := e.box[a] - d; wrapDist < beyond {
						beyond = wrapDist
					}
				}
				if beyond > slack {
					return fmt.Errorf("shard: %s ghost %d is %g beyond the subdomain along axis %d (allowed %g)",
						at, rs.ids[i], beyond, a, slack)
				}
			}
		}
	}
	for g, c := range seen {
		if c > 1 {
			return fmt.Errorf("shard: atom %d owned by %d ranks", g, c)
		}
		// Completeness is only checkable where every rank is hosted; a
		// partial engine sees just its own subdomains.
		if c == 0 && !e.partial {
			return fmt.Errorf("shard: atom %d owned by no rank", g)
		}
	}
	return nil
}

// --- small helpers ---

// wrap1 delegates to internal/md's exported scalar form: the
// bitwise-determinism contract requires the exact arithmetic of System.Wrap,
// so there is deliberately a single implementation (min-image likewise: every
// caller here uses md.Period / md.MinImage1 directly).
func wrap1(x, l float64) float64 { return md.Wrap1(x, l) }

func appendI32At(s []int32, i int, v int32) []int32 {
	if i < len(s) {
		s[i] = v
		return s
	}
	return append(s[:i], v)
}

func appendF64At(s []float64, i int, v float64) []float64 {
	if i < len(s) {
		s[i] = v
		return s
	}
	return append(s[:i], v)
}

func append3At(s []float64, i int, a, b, c float64) []float64 {
	if 3*i+3 <= len(s) {
		s[3*i], s[3*i+1], s[3*i+2] = a, b, c
		return s
	}
	return append(s[:3*i], a, b, c)
}

func appendIntAt(s []int, i int, v int) []int {
	if i < len(s) {
		s[i] = v
		return s
	}
	return append(s[:i], v)
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
