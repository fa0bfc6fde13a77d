package shard

import (
	"fmt"

	"mlmd/internal/cluster"
	"mlmd/internal/rank"
	"mlmd/internal/shard/halo"
)

// GridWorkload is one rank's regular-grid stencil workload under the
// GridEngine: a set of halo fields on the rank's Domain block plus a step
// function that advances them, exchanging ghosts through the provided
// Exchanger. Implementations must follow the determinism contract of the
// particle engine: every owned cell's update is a fixed expression over
// that cell's neighborhood (ghosts included), so each cell's new value is
// bitwise decomposition-invariant. Steps must be allocation-free at
// steady state — the halo layer's pooled frames make the exchanges so.
type GridWorkload interface {
	// Step advances the workload by one time step.
	Step(ex *halo.Exchanger)
	// PartialLen is the length of this workload's observable partial-sum
	// vector (AllReduced over ranks after each Run).
	PartialLen() int
	// Partials fills p (length PartialLen) with the rank-local partial
	// sums of the run observables.
	Partials(p []float64)
	// NumFields is the number of gatherable fields.
	NumFields() int
	// FieldWidth returns field idx's per-cell float64 width on the wire
	// (complex fields report two floats per component).
	FieldWidth(idx int) int
	// PackField appends the owned cells of field idx, x-major z-fastest,
	// FieldWidth floats per cell — the GatherField frame.
	PackField(idx int, buf []float64) []float64
}

// GridConfig configures a GridEngine.
type GridConfig struct {
	// Grid is the Px×Py×Pz rank grid (at least one rank per axis).
	Grid [3]int
	// N is the global lattice size per axis (cells).
	N [3]int
	// Ghost is the ghost width every field of the workload uses.
	Ghost int
	// EvenAligned selects the pair-aligned domain split (TDDFT).
	EvenAligned bool
	// NewWork builds rank r's workload on its domain block.
	NewWork func(rank int, d halo.Domain) (GridWorkload, error)
	// Net prices the modeled interconnect of an in-process communicator.
	Net cluster.Interconnect
	// Comm, when non-nil, runs this engine as one process of a
	// multi-process run hosting only LocalRank (same contract as
	// Config.Comm for the particle engine: collective driver methods must
	// then be called on every process).
	Comm      *cluster.Comm
	LocalRank int
}

// grid rank operation codes.
const (
	gopRun = iota
	gopGather
)

// gridRank is one hosted rank's state.
type gridRank struct {
	rank    int
	d       halo.Domain
	work    GridWorkload
	ex      *halo.Exchanger
	partial []float64
	// gatherBuf stages PackField frames (reused across gathers).
	gatherBuf []float64
}

// GridEngine runs a GridWorkload on every rank of a domain grid — the
// stencil counterpart of Engine and, like it, a client of the rank
// runtime: hosted ranks execute dispatched collectives, a partial engine
// (Comm + LocalRank) hosts one rank per process, and transport rank
// failures are latched into Err instead of crashing the process. Driver
// methods must be called from a single goroutine.
type GridEngine struct {
	comm      *cluster.Comm
	grid      cluster.Grid3D
	p         int
	n         [3]int
	ghost     int
	even      bool
	partial   bool
	applyRank int

	local []*gridRank
	rt    *rank.Runtime

	// per-dispatch parameters and results
	steps       int
	obs         []float64
	gatherIdx   int
	gatherParts [][]float64
}

// NewGridEngine partitions the cfg.N lattice across the grid and starts
// the rank goroutines.
func NewGridEngine(cfg GridConfig) (*GridEngine, error) {
	if cfg.NewWork == nil {
		return nil, fmt.Errorf("shard: GridConfig.NewWork is required")
	}
	grid, comm, localRanks, err := hostRanks(cfg.Grid, cfg.Comm, cfg.LocalRank, cfg.Net)
	if err != nil {
		return nil, err
	}
	p := grid.Size()
	e := &GridEngine{
		comm: comm, grid: grid, p: p, n: cfg.N,
		ghost: cfg.Ghost, even: cfg.EvenAligned,
		partial:   len(localRanks) < p,
		applyRank: localRanks[0],
	}
	for _, r := range localRanks {
		d, err := halo.NewDomain(grid, r, cfg.N, cfg.Ghost, cfg.EvenAligned)
		if err != nil {
			return nil, err
		}
		work, err := cfg.NewWork(r, d)
		if err != nil {
			return nil, fmt.Errorf("shard: rank %d workload: %w", r, err)
		}
		gr := &gridRank{
			rank: r, d: d, work: work,
			ex:      halo.NewExchanger(comm, grid, r),
			partial: make([]float64, work.PartialLen()),
		}
		e.local = append(e.local, gr)
	}
	e.obs = make([]float64, e.local[0].work.PartialLen())
	e.rt = rank.Start(len(e.local), e.rankOp)
	return e, nil
}

// rankOp runs one dispatched operation on the hosted rank in runtime slot
// slot.
func (e *GridEngine) rankOp(slot, op int) {
	switch op {
	case gopRun:
		e.runRank(e.local[slot])
	case gopGather:
		e.gatherRank(e.local[slot])
	}
}

// Err returns the first communicator rank-failure observed by any hosted
// rank (nil while the mesh is healthy).
func (e *GridEngine) Err() error { return e.rt.Err() }

// Close stops the rank goroutines (safe after a failure, a no-op when
// repeated). The engine must not be used afterwards.
func (e *GridEngine) Close() { e.rt.Close() }

// Ranks returns the rank count P.
func (e *GridEngine) Ranks() int { return e.p }

// ModeledCommSeconds returns the communicator's virtual wall clock.
func (e *GridEngine) ModeledCommSeconds() float64 { return e.comm.MaxClock() }

// HaloBytes returns the cumulative ghost-frame payload bytes sent by the
// hosted ranks (all of them in-process, one per process otherwise).
func (e *GridEngine) HaloBytes() int64 {
	var b int64
	for _, gr := range e.local {
		b += gr.ex.BytesSent()
	}
	return b
}

// Run advances every rank by steps and returns the AllReduced observable
// partials (summed in ascending rank order on every rank, so the vector
// is identical everywhere). The returned slice is reused by the next Run.
// Allocation-free at steady state.
func (e *GridEngine) Run(steps int) ([]float64, error) {
	if err := e.Err(); err != nil {
		return nil, err
	}
	e.steps = steps
	e.rt.Dispatch(gopRun)
	if err := e.Err(); err != nil {
		return nil, err
	}
	for _, gr := range e.local {
		if gr.rank == e.applyRank {
			copy(e.obs, gr.partial)
		}
	}
	return e.obs, nil
}

func (e *GridEngine) runRank(gr *gridRank) {
	for s := 0; s < e.steps; s++ {
		gr.work.Step(gr.ex)
	}
	for i := range gr.partial {
		gr.partial[i] = 0
	}
	gr.work.Partials(gr.partial)
	e.comm.AllReduceSumInPlace(gr.rank, gr.partial)
}

// GatherField reassembles field idx on rank 0's process: dst (length
// N[0]*N[1]*N[2]*width, x-major z-fastest global layout) is filled there
// and left untouched elsewhere. Collective — every process of a partial
// engine must call it. The gather is the grid path's checkpoint boundary:
// steady-state Run allocation behavior must survive it (pinned by
// TestGridEngineSteadyStateAllocs).
func (e *GridEngine) GatherField(idx int, dst []float64) error {
	if err := e.Err(); err != nil {
		return err
	}
	e.gatherIdx = idx
	e.rt.Dispatch(gopGather)
	if err := e.Err(); err != nil {
		return err
	}
	if e.gatherParts == nil {
		return nil // not the root process
	}
	parts := e.gatherParts
	e.gatherParts = nil
	w := e.local[0].work.FieldWidth(idx)
	want := e.n[0] * e.n[1] * e.n[2] * w
	if len(dst) != want {
		return fmt.Errorf("shard: gather destination holds %d floats, field needs %d", len(dst), want)
	}
	for r := 0; r < e.p; r++ {
		d, err := halo.NewDomain(e.grid, r, e.n, e.ghost, e.even)
		if err != nil {
			return err
		}
		part := parts[r]
		if len(part) != d.Len()*w {
			return fmt.Errorf("shard: rank %d gather frame holds %d floats, block needs %d", r, len(part), d.Len()*w)
		}
		k := 0
		for ox := 0; ox < d.Own[0]; ox++ {
			for oy := 0; oy < d.Own[1]; oy++ {
				gbase := (((d.Off[0]+ox)*e.n[1]+d.Off[1]+oy)*e.n[2] + d.Off[2]) * w
				run := d.Own[2] * w
				copy(dst[gbase:gbase+run], part[k:k+run])
				k += run
			}
		}
	}
	return nil
}

func (e *GridEngine) gatherRank(gr *gridRank) {
	gr.gatherBuf = gr.work.PackField(e.gatherIdx, gr.gatherBuf[:0])
	parts := e.comm.Gather(gr.rank, 0, gr.gatherBuf)
	if gr.rank == 0 {
		e.gatherParts = parts
	}
}
