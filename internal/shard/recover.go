// Self-healing runs (ISSUE 8): RunRecovered drives a Stage through
// periodic checkpoints and the shrink-and-resume state machine
//
//	detect -> drain -> re-partition -> re-rendezvous -> resume
//
// When a rank of the mesh dies mid-run, every surviving process drains its
// transport's failure latch to learn the full set of lost ranks, tears the
// broken mesh down, auto-selects a new grid shape for the survivors,
// re-rendezvous at the reduced rank count under an incremented generation
// tag (stragglers of the dead mesh are rejected at the handshake), and only
// then discovers the newest valid checkpoint, agrees on it, and resumes
// from it — with no operator
// action, bounded by a restart budget so a crash-looping host cannot spin
// forever.
//
// The resumed trajectory is bitwise identical to an operator-driven resume
// from the same checkpoint on the same shrunken layout: resume restores the
// gathered system, forces are a deterministic decomposition-invariant
// function of positions, and chunk boundaries add only the stage's Fill,
// which reads the state but never writes it (see checkpoint.go). Steps
// between failures stay on the allocation-free steady-state path.
package shard

import (
	"errors"
	"fmt"
	"slices"
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
// handshake fences out stragglers of dead generations; SocketMesh.Build
// does.
type MeshBuilder func(gen int, survivors []int, grid [3]int) (comm *cluster.Comm, local int, close func(), err error)

// SocketMesh builds the generation-tagged socket meshes of one process of
// a multi-process run. Single-host runs rendezvous in Dir (Unix-domain
// sockets, or loopback TCP with address files when TCP is set); a
// multi-host run lists its generation-0 endpoints in Hosts, and a rebuilt
// mesh keeps each survivor at its own endpoint.
type SocketMesh struct {
	// ID is the generation-0 rank of this process.
	ID int
	// Dir is the rendezvous directory shared by every process of a
	// single-host run (unused with Hosts).
	Dir string
	// TCP selects loopback TCP over Unix-domain sockets in Dir.
	TCP bool
	// Hosts lists the host:port endpoint of every generation-0 rank.
	Hosts []string
	// Opts are the transport options; Build sets Generation.
	Opts cluster.SocketOptions
	// Transport is the transport of the latest mesh Build formed (nil
	// before the first).
	Transport *cluster.SocketTransport
}

// Build is a MeshBuilder: it locates ID among the survivors and connects
// this process to theirs under generation gen.
func (m *SocketMesh) Build(gen int, survivors []int, grid [3]int) (*cluster.Comm, int, func(), error) {
	local := slices.Index(survivors, m.ID)
	if local < 0 {
		return nil, 0, nil, fmt.Errorf("shard: rank %d is not among the survivors %v", m.ID, survivors)
	}
	opts := m.Opts
	opts.Generation = gen
	var tr *cluster.SocketTransport
	var err error
	switch {
	case len(m.Hosts) > 0:
		hosts := make([]string, len(survivors))
		for i, id := range survivors {
			hosts[i] = m.Hosts[id]
		}
		tr, err = cluster.NewTCPTransport(hosts, local, len(hosts), grid, opts)
	case m.TCP:
		tr, err = cluster.NewTCPRendezvousTransport(m.Dir, local, len(survivors), grid, opts)
	default:
		tr, err = cluster.NewSocketTransportOpts(m.Dir, local, len(survivors), grid, opts)
	}
	if err != nil {
		return nil, 0, nil, err
	}
	comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
	if err != nil {
		tr.Close()
		return nil, 0, nil, err
	}
	m.Transport = tr
	return comm, local, func() { tr.Close() }, nil
}

// Stage is the integration RunRecovered drives on each generation's
// engine. Every process calls the hooks at the same points, so a hook may
// be collective.
type Stage interface {
	// Attach binds the stage to a freshly built engine over sys (once per
	// generation, after any restore).
	Attach(eng *Engine, sys *md.System) error
	// Advance integrates n steps. A lost peer surfaces as a
	// *cluster.RankFailedError.
	Advance(n int) error
	// Fill completes a checkpoint at a cadence boundary and at the end of
	// the run. The driver has set
	// Step, Grid, Cuts, Loads and Sys; on the process hosting rank 0, Fill
	// must leave Sys holding the whole current system.
	Fill(cp *mlmdio.Checkpoint) error
	// Restore loads the stage's own state from cp. The driver has already
	// copied cp's positions, velocities and forces into sys.
	Restore(cp *mlmdio.Checkpoint) error
}

// Thermostat is the Stage of a plain engine run: Engine.Run steps of Dt
// under the Berendsen thermostat toward KT with time constant Tau (Tau <=
// 0: NVE), with the distributed state gathered onto rank 0 for each
// checkpoint. It carries no state beyond the system.
type Thermostat struct {
	Dt, KT, Tau float64
	// Last is the result of the latest Advance.
	Last RunResult
	eng  *Engine
	sys  *md.System
}

// Attach implements Stage.
func (t *Thermostat) Attach(eng *Engine, sys *md.System) error {
	t.eng, t.sys = eng, sys
	return nil
}

// Advance implements Stage.
func (t *Thermostat) Advance(n int) error {
	t.Last = t.eng.Run(n, t.Dt, t.KT, t.Tau)
	return t.Last.Err
}

// Fill implements Stage: a GatherAll, the only collective a checkpoint
// adds to the trajectory (it reads rank state, never writes it).
func (t *Thermostat) Fill(cp *mlmdio.Checkpoint) error {
	t.eng.GatherAll(t.sys)
	cp.Dt, cp.KT, cp.Tau = t.Dt, t.KT, t.Tau
	return t.eng.Err()
}

// Restore implements Stage; the thermostat is stateless beyond the
// velocities.
func (t *Thermostat) Restore(*mlmdio.Checkpoint) error { return nil }

// RecoverOpts parameterizes RunRecovered.
type RecoverOpts struct {
	// Steps is the total step count of the run (cumulative across
	// restarts: a resume from a step-S checkpoint runs Steps−S more).
	Steps int
	// Every is the checkpoint cadence in steps (<= 0: none).
	Every int
	// MaxRestarts bounds the automatic restarts (mesh rebuilds) the driver
	// may attempt; 0 means a single failure is fatal, exactly as without a
	// recovery driver.
	MaxRestarts int
	// Path is the checkpoint file: the process hosting rank 0 writes it at
	// every cadence boundary (mlmdio.WriteCheckpointFile keeps the one
	// before at Path.prev), and recovery resumes from the newer valid one of
	// the two. Every process must see the same files. Empty: no checkpoint
	// is written, and a failure cannot be recovered from.
	Path string
	// Resume, when non-nil, is the checkpoint generation 0 starts from.
	Resume *mlmdio.Checkpoint
	// Mesh builds each generation's communicator; nil runs every rank in
	// this process (no rank can then fail alone).
	Mesh MeshBuilder
	// OnChunk, when non-nil, runs on every process after each completed
	// chunk with the cumulative step count; returning an error aborts the
	// run (fault-injection and progress hook).
	OnChunk func(gen, done int) error
	// OnResume, when non-nil, runs on every process after a successful
	// re-rendezvous, naming the generation and the checkpoint file being
	// resumed.
	OnResume func(gen int, path string)
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

// RunRecovered runs st on the decomposed system to opts.Steps with
// periodic checkpoints, automatically shrinking and resuming on rank
// failures (see the package comment of this file for the state machine).
// cfg provides the engine template — Grid names the initial shape; Comm,
// LocalRank and Cuts are owned by the driver. Every process of the run
// must call RunRecovered with identical arguments; sys is restored from
// the checkpoint on every process during recovery.
func RunRecovered(cfg Config, sys *md.System, st Stage, opts RecoverOpts) (RecoverStats, error) {
	var stats RecoverStats
	if sys == nil || sys.N < 1 {
		return stats, errors.New("shard: RunRecovered needs a non-empty system")
	}
	mesh := opts.Mesh
	if mesh == nil {
		mesh = func(int, []int, [3]int) (*cluster.Comm, int, func(), error) { return nil, 0, func() {}, nil }
	}
	every := opts.Every
	if every <= 0 {
		every = opts.Steps
	}
	grid := cfg.Grid
	if _, err := cluster.NewGrid3D(grid[0], grid[1], grid[2]); err != nil {
		return stats, err
	}
	survivors := make([]int, grid[0]*grid[1]*grid[2])
	for i := range survivors {
		survivors[i] = i
	}
	box := [3]float64{sys.Lx, sys.Ly, sys.Lz}
	halo := startHalo(cfg)
	gen := 0
	startStep := int64(0)
	cuts := cfg.Cuts
	var detect0 time.Time
	// cause is the failure the next generation recovers from.
	var cause error

	// budget spends one restart (or fails the run when none remain) and
	// moves to the next mesh generation.
	budget := func(why error) error {
		if opts.MaxRestarts == 0 {
			return why // fail-stop: the failure itself, as without this driver
		}
		if stats.Restarts >= opts.MaxRestarts {
			return fmt.Errorf("shard: restart budget %d exhausted: %w", opts.MaxRestarts, why)
		}
		stats.Restarts++
		gen++
		return nil
	}

	// restore resets sys and the stage to cp and seeds the cut planes for
	// the (already chosen) grid: a same-shape resume keeps the balanced
	// planes as they were, a new shape seeds them from the persisted load
	// profile, so heavy regions start narrow (no profile: uniform).
	restore := func(cp *mlmdio.Checkpoint) error {
		if cp.Sys == nil || cp.Sys.N != sys.N {
			return fmt.Errorf("shard: the step-%d checkpoint does not hold the run's %d atoms", cp.Step, sys.N)
		}
		copy(sys.X, cp.Sys.X)
		copy(sys.V, cp.Sys.V)
		copy(sys.F, cp.Sys.F)
		startStep = cp.Step
		if cp.Grid == grid {
			cuts = cp.Cuts
		} else {
			cuts = SeedCuts(grid, box, halo, cp.Grid, cp.Cuts, cp.Loads)
		}
		return st.Restore(cp)
	}
	if opts.Resume != nil {
		if err := restore(opts.Resume); err != nil {
			return stats, err
		}
	}

	// resume discovers the newest valid checkpoint and restores it. It runs
	// once a rebuilt mesh has formed: every survivor, the checkpoint writer
	// included, has then left its run loop, so no write is in flight (and
	// if the writer died, nothing writes any more). Discovering earlier
	// raced the writer: a survivor could read the files between the
	// writer's rotation to .prev and its write of the kill-step checkpoint,
	// and the disagreement burned a restart.
	resume := func() error {
		path, cp, err := mlmdio.NewestValidCheckpoint([]string{opts.Path, opts.Path + ".prev"})
		if err != nil {
			return fmt.Errorf("shard: cannot resume after %w: %v", cause, err)
		}
		if err := restore(cp); err != nil {
			return err
		}
		stats.ResumedStep = cp.Step
		stats.ResumedFrom = path
		if opts.OnResume != nil {
			opts.OnResume(gen, path)
		}
		return nil
	}

	for {
		comm, local, closeMesh, err := mesh(gen, survivors, grid)
		if err != nil {
			if gen == 0 {
				return stats, err
			}
			// A failed re-rendezvous burns budget and moves to the NEXT
			// generation, so any half-formed mesh of this attempt is fenced
			// out by the handshake tag instead of poisoning the retry.
			if berr := budget(err); berr != nil {
				return stats, berr
			}
			continue
		}
		if gen > 0 {
			if err := resume(); err != nil {
				closeMesh()
				return stats, err
			}
			if err := agreeOnStep(comm, local, startStep); err != nil {
				closeMesh()
				if berr := budget(err); berr != nil {
					return stats, berr
				}
				cause = err
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
			return stats, err
		}

		// One error ends the generation: a rank failure is recovered from
		// below, anything else (a write or OnChunk error) ends the run.
		err = st.Attach(eng, sys)
		done := int(startStep)
		probe := gen > 0 // 1-step first chunk: timestamps the first resumed step
		for err == nil && done < opts.Steps {
			chunk := every - done%every
			if probe {
				chunk = 1
			}
			if rem := opts.Steps - done; rem < chunk {
				chunk = rem
			}
			if err = st.Advance(chunk); err != nil {
				break
			}
			done += chunk
			if probe {
				probe = false
				if !detect0.IsZero() {
					stats.DetectToResume = time.Since(detect0)
					detect0 = time.Time{}
				}
			}
			// Every cadence boundary is checkpointed; the end of the run is
			// filled too, so sys ends up holding the final state.
			cadence := opts.Every > 0 && done%every == 0
			if cadence || done >= opts.Steps {
				cp := &mlmdio.Checkpoint{
					Step:  int64(done),
					Grid:  grid,
					Cuts:  [3][]float64{eng.CutPlanes(0), eng.CutPlanes(1), eng.CutPlanes(2)},
					Loads: eng.LoadProfile(),
					Sys:   sys,
				}
				if err = st.Fill(cp); err == nil && cadence && local == 0 && opts.Path != "" {
					err = mlmdio.WriteCheckpointFile(opts.Path, cp)
				}
			}
			if err == nil && opts.OnChunk != nil {
				err = opts.OnChunk(gen, done)
			}
		}

		// ---- detect ---- (a run with no restart left fails at once)
		var rf *cluster.RankFailedError
		if !errors.As(err, &rf) {
			eng.Close()
			closeMesh()
			return stats, err
		}
		if err := budget(rf); err != nil {
			eng.Close()
			closeMesh()
			return stats, err
		}
		detect0 = time.Now()

		// ---- drain ----
		failed := []int{rf.Rank}
		if tr, ok := comm.Transport().(*cluster.SocketTransport); ok {
			if f := drainFailedRanks(tr); len(f) > 0 {
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
			return stats, fmt.Errorf("shard: no survivors to resume on: %w", rf)
		}
		survivors = next
		cause = rf

		// ---- re-partition ---- (the resume itself follows the next
		// generation's rendezvous)
		grid, err = AutoGrid(len(survivors), box, halo)
		if err != nil {
			return stats, err
		}
	}
}
