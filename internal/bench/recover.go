package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mlmd/internal/cluster"
	"mlmd/internal/mlmdio"
	"mlmd/internal/rank"
	"mlmd/internal/shard"
)

// This file measures what the PR 8 self-healing layer costs: the
// detect-to-first-resumed-step latency of an automatic shrink-and-resume
// (drain the failure, re-rendezvous the survivors at the next mesh
// generation, discover the newest checkpoint, restore) across a sweep of
// checkpoint cadences. The latency itself is cadence-independent — what the
// cadence buys is bounded at-risk work, reported alongside so the
// cadence/recovery trade reads off one table.

// RecoverPoint is one checkpoint cadence's measured recovery cost.
type RecoverPoint struct {
	Ranks int
	Grid  string
	Atoms int
	Steps int
	// Every is the checkpoint cadence (steps between snapshots) and the
	// worst-case steps re-done after a crash at this cadence.
	Every int
	// KillAt is the step at whose snapshot boundary the victim rank was
	// SIGKILL-equivalently aborted; ResumedStep is where the survivors
	// picked the trajectory back up.
	KillAt      int
	ResumedStep int
	// DetectToResumeNs is the best-of-trials latency from failure detection
	// to the first resumed MD step, maximized across the survivors (the
	// slowest rank gates the mesh).
	DetectToResumeNs float64
	// StepNs is the uninterrupted per-step time of the same workload, and
	// AtRiskNs = Every x StepNs the worst-case work replayed per crash —
	// the quantity the cadence actually controls.
	StepNs   float64
	AtRiskNs float64
}

// RecoverTrials is the best-of count of the -recover sweep (each trial
// tears down and re-rendezvouses a socket mesh, so it stays small).
const RecoverTrials = 3

// RecoverCadences is the default checkpoint-cadence sweep of
// `bench-scaling -recover`.
var RecoverCadences = []int{5, 10, 25, 50}

// RecoverGrid is the decomposition of the -recover sweep: three slab ranks,
// so a kill leaves a 2-survivor mesh to shrink onto.
var RecoverGrid = [3]int{3, 1, 1}

// recoverMeshBuilder locates original rank id among each generation's
// survivors and builds the generation-tagged socket transport in dir,
// exposing the transport through trOut for fault injection.
func recoverMeshBuilder(dir string, id int, trOut **cluster.SocketTransport) shard.MeshBuilder {
	return func(gen int, survivors []int, grid [3]int) (*cluster.Comm, int, func(), error) {
		local := -1
		for i, s := range survivors {
			if s == id {
				local = i
			}
		}
		if local < 0 {
			return nil, 0, nil, fmt.Errorf("bench: process %d not among survivors %v", id, survivors)
		}
		tr, err := cluster.NewSocketTransportOpts(dir, local, len(survivors), grid,
			cluster.SocketOptions{Generation: gen})
		if err != nil {
			return nil, 0, nil, err
		}
		comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
		if err != nil {
			tr.Close()
			return nil, 0, nil, err
		}
		*trOut = tr
		return comm, local, func() { tr.Close() }, nil
	}
}

// RecoverCost measures, for each checkpoint cadence, the latency of one
// automatic shrink-and-resume: size ranks run the LJ workload over socket
// transports, the highest rank aborts its transport at the snapshot
// boundary nearest mid-run, and the survivors' RunRecovered drivers shrink
// onto a fresh mesh and resume (best of RecoverTrials, maximum across
// survivors).
func RecoverCost(grid [3]int, cells, steps int, cadences []int) ([]RecoverPoint, error) {
	if len(cadences) == 0 {
		return nil, fmt.Errorf("bench: no checkpoint cadences given")
	}
	size := grid[0] * grid[1] * grid[2]
	if size < 2 {
		return nil, fmt.Errorf("bench: recovery needs at least 2 ranks, grid %v has %d", grid, size)
	}
	for _, every := range cadences {
		if steps < 2*every {
			return nil, fmt.Errorf("bench: cadence %d does not fit a %d-step run twice", every, steps)
		}
	}
	base, err := newShardLJSystem(cells, 3e-4)
	if err != nil {
		return nil, err
	}
	// The fcc LJ workload of the grid sweep; the interconnect is the real
	// socket wire, not a model.
	cfg := shard.Config{
		Grid: grid, Cutoff: 2.0, Skin: 0.3,
		NewFF: shard.LJFactory(0.01, 1.0),
	}
	plain, err := measureShardConfig(base, cfg, steps)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "mlmd-bench-recover")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	points := make([]RecoverPoint, 0, len(cadences))
	for ci, every := range cadences {
		killAt := steps / 2 / every * every // >= every: steps >= 2*every
		best := time.Duration(0)
		resumed := 0
		for trial := 0; trial < RecoverTrials; trial++ {
			dir := filepath.Join(root, fmt.Sprintf("c%dt%d", ci, trial))
			if err := os.Mkdir(dir, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(dir, "bench.ckpt")
			errInjected := errors.New("bench: injected rank failure")
			stats := make([]shard.RecoverStats, size)
			errs := make([]error, size)
			// One runtime slot per recovering process: the meshes rendezvous
			// and run collectives, so every process must run concurrently.
			procs := rank.Start(size, func(id, _ int) {
				sys := base.Clone()
				var tr *cluster.SocketTransport
				opts := shard.RecoverOpts{
					Steps: steps, Dt: 2, Every: every, MaxRestarts: 1,
					Candidates: []string{path, path + ".prev"},
					Write:      func(cp *mlmdio.Checkpoint) error { return mlmdio.WriteCheckpointFile(path, cp) },
					Mesh:       recoverMeshBuilder(dir, id, &tr),
				}
				if id == size-1 {
					opts.OnChunk = func(gen, done int) error {
						if gen == 0 && done == killAt {
							tr.Abort()
							return errInjected
						}
						return nil
					}
				}
				_, stats[id], errs[id] = shard.RunRecovered(cfg, sys, opts)
			})
			procs.Dispatch(0)
			procs.Close()
			worst := time.Duration(0)
			for id := 0; id < size-1; id++ {
				if errs[id] != nil {
					return nil, fmt.Errorf("bench: survivor %d (cadence %d): %w", id, every, errs[id])
				}
				if stats[id].DetectToResume > worst {
					worst = stats[id].DetectToResume
				}
				resumed = int(stats[id].ResumedStep)
			}
			if !errors.Is(errs[size-1], errInjected) {
				return nil, fmt.Errorf("bench: victim returned %v, want the injected failure", errs[size-1])
			}
			if best == 0 || worst < best {
				best = worst
			}
		}
		points = append(points, RecoverPoint{
			Ranks: size,
			Grid:  fmt.Sprintf("%dx%dx%d", grid[0], grid[1], grid[2]),
			Atoms: base.N, Steps: steps, Every: every,
			KillAt: killAt, ResumedStep: resumed,
			DetectToResumeNs: float64(best.Nanoseconds()),
			StepNs:           plain.NsPerStep,
			AtRiskNs:         float64(every) * plain.NsPerStep,
		})
	}
	return points, nil
}

// RecoverTable formats the sweep for humans.
func RecoverTable(points []RecoverPoint) string {
	var b strings.Builder
	if len(points) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Shrink-and-resume recovery latency (%d->%d ranks, %d atoms, %d steps, best of %d, GOMAXPROCS=%d)\n",
		points[0].Ranks, points[0].Ranks-1, points[0].Atoms, points[0].Steps, RecoverTrials, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "%10s %8s %8s %18s %12s %14s\n",
		"ckpt every", "kill at", "resumed", "detect->resume ms", "step us", "at-risk ms")
	for _, pt := range points {
		fmt.Fprintf(&b, "%10d %8d %8d %18.2f %12.1f %14.2f\n",
			pt.Every, pt.KillAt, pt.ResumedStep,
			pt.DetectToResumeNs/1e6, pt.StepNs/1e3, pt.AtRiskNs/1e6)
	}
	return b.String()
}
