// Self-healing runs (ISSUE 8): RunRecovered wraps the chunked checkpoint
// loop of RunCheckpointed in the shrink-and-resume state machine
//
//	detect -> drain -> re-rendezvous -> re-partition -> resume
//
// When a rank of the mesh dies mid-run, every surviving process drains its
// transport's failure latch to learn the full set of lost ranks, tears the
// broken mesh down, re-rendezvous at the reduced rank count under an
// incremented generation tag (stragglers of the dead mesh are rejected at
// the handshake), auto-selects a new grid shape for the survivors, agrees
// on the newest valid checkpoint, and resumes from it — with no operator
// action, bounded by a restart budget so a crash-looping host cannot spin
// forever.
//
// The resumed trajectory is bitwise identical to an operator-driven resume
// from the same checkpoint on the same shrunken layout: resume restores the
// gathered system, forces are a deterministic decomposition-invariant
// function of positions, and chunk boundaries add only GatherAll (see
// checkpoint.go). Steps between failures stay on the allocation-free
// steady-state path.
package shard

import (
	"errors"
	"fmt"
	"time"

	"mlmd/internal/cluster"
	"mlmd/internal/md"
	"mlmd/internal/mlmdio"
)

// MeshBuilder constructs the communicator of one mesh generation: gen is
// the generation number (0 for the initial launch, incremented on every
// rebuild), survivors lists the original generation-0 rank ids still alive
// (ascending — position i becomes rank i of the new mesh), and grid is the
// Px×Py×Pz shape the new mesh will decompose. It returns the communicator,
// the rank this process hosts in it, and a teardown function. Builders over
// a SocketTransport must pass gen as SocketOptions.Generation so the wire
// handshake fences out stragglers of dead generations.
type MeshBuilder func(gen int, survivors []int, grid [3]int) (comm *cluster.Comm, local int, close func(), err error)

// RecoverOpts parameterizes RunRecovered.
type RecoverOpts struct {
	// Steps is the total step count of the run (cumulative across
	// restarts: a resume from a step-S checkpoint runs Steps−S more).
	Steps int
	// Dt, KT and Tau are the integrator step and thermostat parameters.
	Dt, KT, Tau float64
	// Every is the checkpoint cadence in steps (<= 0: only a final
	// checkpoint).
	Every int
	// MaxRestarts bounds the automatic restarts (mesh rebuilds) the driver
	// may attempt; 0 means a single failure is fatal, exactly as without a
	// recovery driver.
	MaxRestarts int
	// Candidates lists the checkpoint paths recovery may resume from, in
	// preference order on equal steps (typically the primary file and its
	// rotated predecessor). Every process must see the same files.
	Candidates []string
	// Write persists cp (called on the process hosting rank 0 at every
	// cadence boundary; the implementation owns rotation and atomicity).
	// nil disables checkpoint writing — then a failure can only resume
	// from pre-existing Candidates.
	Write func(cp *mlmdio.Checkpoint) error
	// Mesh builds each generation's communicator (required).
	Mesh MeshBuilder
	// OnChunk, when non-nil, runs on every process after each completed
	// chunk with the cumulative step count; returning an error aborts the
	// run (fault-injection and progress hook).
	OnChunk func(gen, done int) error
	// OnResume, when non-nil, runs on every process after a successful
	// re-rendezvous, naming the generation and the checkpoint being
	// resumed.
	OnResume func(gen int, path string, cp *mlmdio.Checkpoint)
}

// RecoverStats reports what recovery did during a RunRecovered call.
type RecoverStats struct {
	// Restarts counts the mesh rebuilds performed (0: undisturbed run).
	Restarts int
	// ResumedStep and ResumedFrom identify the last checkpoint recovery
	// resumed from (zero values when no restart happened).
	ResumedStep int64
	ResumedFrom string
	// DetectToResume is the recovery latency of the last restart: from
	// failure detection to the completion of the first resumed step on the
	// rebuilt mesh (what `bench-scaling -recover` reports).
	DetectToResume time.Duration
}

// drainFailedRanks polls the transport's failure latch until the set of
// blamed ranks is stable (or a bound elapses): when several ranks die in
// one window, the EOFs of the full mesh land within moments of the first,
// and waiting for quiescence lets every survivor shrink past all of them
// in a single rebuild instead of burning one restart per corpse.
func drainFailedRanks(st *cluster.SocketTransport) []int {
	failed := st.FailedRanks()
	deadline := time.Now().Add(time.Second)
	for stable := 0; stable < 3 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		cur := st.FailedRanks()
		if len(cur) == len(failed) {
			stable++
		} else {
			stable = 0
			failed = cur
		}
	}
	return failed
}

// agreeOnStep verifies every rank of a freshly rebuilt mesh resumes from
// the same checkpoint step (the processes discover the checkpoint
// independently from shared files; a racing read could in principle pick a
// different snapshot). A rank failure during the check surfaces as an
// error, not a panic.
func agreeOnStep(comm *cluster.Comm, local int, step int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			rf, ok := cluster.AsRankFailure(r)
			if !ok {
				panic(r)
			}
			err = rf
		}
	}()
	all := comm.AllGather(local, []float64{float64(step)}, nil)
	for r, s := range all {
		if s != float64(step) {
			return fmt.Errorf("shard: resume disagreement: rank %d at step %g, this rank at %d", r, s, step)
		}
	}
	return nil
}

// RunRecovered runs the decomposed system to opts.Steps with periodic
// checkpoints, automatically shrinking and resuming on rank failures (see
// the package comment of this file for the state machine). cfg provides
// the engine template — Grid names the initial shape; Comm,
// LocalRank and Cuts are owned by the driver. Every process of the run
// must call RunRecovered with identical arguments; sys is restored from
// the checkpoint on every process during recovery.
func RunRecovered(cfg Config, sys *md.System, opts RecoverOpts) (RunResult, RecoverStats, error) {
	var res RunResult
	var stats RecoverStats
	if opts.Mesh == nil {
		return res, stats, errors.New("shard: RunRecovered requires a MeshBuilder")
	}
	if sys == nil || sys.N < 1 {
		return res, stats, errors.New("shard: RunRecovered needs a non-empty system")
	}
	if opts.Steps <= 0 {
		return res, stats, nil
	}
	every := opts.Every
	if every <= 0 {
		every = opts.Steps
	}
	grid := cfg.Grid
	if _, err := cluster.NewGrid3D(grid[0], grid[1], grid[2]); err != nil {
		return res, stats, err
	}
	survivors := make([]int, grid[0]*grid[1]*grid[2])
	for i := range survivors {
		survivors[i] = i
	}
	box := [3]float64{sys.Lx, sys.Ly, sys.Lz}
	halo := cfg.Cutoff + cfg.Skin
	gen := 0
	startStep := int64(0)
	cuts := cfg.Cuts
	var detect0 time.Time

	// budget spends one restart (or fails the run when none remain) and
	// moves to the next mesh generation.
	budget := func(cause error) error {
		if stats.Restarts >= opts.MaxRestarts {
			return fmt.Errorf("shard: restart budget %d exhausted: %w", opts.MaxRestarts, cause)
		}
		stats.Restarts++
		gen++
		return nil
	}

	// resume discovers the newest valid checkpoint, restores sys from it,
	// and seeds the cut planes for the (already chosen) grid. Called on the
	// failure path and again when a rebuilt mesh disagrees on the resume
	// step — a survivor whose discovery raced the final pre-crash checkpoint
	// write converges by re-reading the files.
	resume := func(cause error) error {
		path, cp, err := mlmdio.NewestValidCheckpoint(opts.Candidates)
		if err != nil {
			return fmt.Errorf("shard: cannot resume after %w: %v", cause, err)
		}
		if cp.Sys == nil || cp.Sys.N != sys.N {
			return fmt.Errorf("shard: checkpoint %s holds %d atoms, run has %d", path, cp.Sys.N, sys.N)
		}
		copy(sys.X, cp.Sys.X)
		copy(sys.V, cp.Sys.V)
		copy(sys.F, cp.Sys.F)
		startStep = cp.Step
		stats.ResumedStep = cp.Step
		stats.ResumedFrom = path
		if cp.Grid == grid {
			cuts = cp.Cuts // same shape: restore the balanced planes as-is
		} else {
			cuts = SeedCuts(grid, box, halo, cp.Grid, cp.Cuts, cp.Loads)
		}
		if opts.OnResume != nil {
			opts.OnResume(gen, path, cp)
		}
		return nil
	}

	for {
		comm, local, closeMesh, err := opts.Mesh(gen, survivors, grid)
		if err != nil {
			if gen == 0 {
				return res, stats, err
			}
			// A failed re-rendezvous burns budget and moves to the NEXT
			// generation, so any half-formed mesh of this attempt is fenced
			// out by the handshake tag instead of poisoning the retry.
			if berr := budget(err); berr != nil {
				return res, stats, berr
			}
			continue
		}
		if gen > 0 {
			if err := agreeOnStep(comm, local, startStep); err != nil {
				closeMesh()
				if berr := budget(err); berr != nil {
					return res, stats, berr
				}
				if rerr := resume(err); rerr != nil {
					return res, stats, rerr
				}
				continue
			}
		}
		ecfg := cfg
		ecfg.Grid = grid
		ecfg.Comm = comm
		ecfg.LocalRank = local
		ecfg.Cuts = cuts
		eng, err := NewEngine(ecfg, sys)
		if err != nil {
			closeMesh()
			return res, stats, err
		}

		hostsRoot := local == 0
		done := int(startStep)
		probe := gen > 0 // 1-step first chunk: timestamps the first resumed step
		var failErr error
		for done < opts.Steps {
			chunk := every - done%every
			if probe {
				chunk = 1
			}
			if rem := opts.Steps - done; rem < chunk {
				chunk = rem
			}
			r := eng.Run(chunk, opts.Dt, opts.KT, opts.Tau)
			if r.Err != nil {
				failErr = r.Err
				break
			}
			res = r
			done += chunk
			if probe {
				probe = false
				if !detect0.IsZero() {
					stats.DetectToResume = time.Since(detect0)
					detect0 = time.Time{}
				}
			}
			eng.GatherAll(sys)
			if err := eng.Err(); err != nil {
				failErr = err
				break
			}
			if hostsRoot && opts.Write != nil && (done%every == 0 || done >= opts.Steps) {
				cp := &mlmdio.Checkpoint{
					Step: int64(done),
					Dt:   opts.Dt, KT: opts.KT, Tau: opts.Tau,
					Grid:  grid,
					Cuts:  [3][]float64{eng.CutPlanes(0), eng.CutPlanes(1), eng.CutPlanes(2)},
					Loads: eng.LoadProfile(),
					Sys:   sys,
				}
				if err := opts.Write(cp); err != nil {
					eng.Close()
					closeMesh()
					return res, stats, err
				}
			}
			if opts.OnChunk != nil {
				if err := opts.OnChunk(gen, done); err != nil {
					eng.Close()
					closeMesh()
					return res, stats, err
				}
			}
		}
		if failErr == nil {
			eng.Close()
			closeMesh()
			return res, stats, nil
		}

		// ---- detect ----
		var rf *cluster.RankFailedError
		if !errors.As(failErr, &rf) {
			eng.Close()
			closeMesh()
			return res, stats, failErr
		}
		detect0 = time.Now()

		// ---- drain ----
		failed := []int{rf.Rank}
		if st, ok := comm.Transport().(*cluster.SocketTransport); ok {
			if f := drainFailedRanks(st); len(f) > 0 {
				failed = f
			}
		}
		eng.Close()
		closeMesh() // a graceful close: fellow survivors see a bye, not a second crash

		// ---- shrink ----
		lost := make(map[int]bool, len(failed))
		for _, r := range failed {
			lost[r] = true
		}
		next := make([]int, 0, len(survivors))
		for i, id := range survivors {
			if !lost[i] {
				next = append(next, id)
			}
		}
		if len(next) == 0 {
			return res, stats, fmt.Errorf("shard: no survivors to resume on: %w", rf)
		}
		if berr := budget(rf); berr != nil {
			return res, stats, berr
		}
		survivors = next

		// ---- re-partition ----
		grid, err = AutoGrid(len(survivors), box, halo)
		if err != nil {
			return res, stats, err
		}

		// ---- resume ----
		if err := resume(rf); err != nil {
			return res, stats, err
		}
	}
}
