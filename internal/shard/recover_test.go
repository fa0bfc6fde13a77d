package shard

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mlmd/internal/cluster"
	"mlmd/internal/md"
	"mlmd/internal/mlmdio"
)

// Recovery-driver tests (ISSUE 8 tentpole): RunRecovered must shrink past a
// dead rank and resume from the newest checkpoint with no operator action,
// and the resumed trajectory must be bitwise identical to an uninterrupted
// run — the repo-wide decomposition-identity contract extended across a
// mesh generation change.

// recoverOutcome collects one process's RunRecovered return values.
type recoverOutcome struct {
	stats RecoverStats
	err   error
}

// TestRunRecoveredShrinksInProcess: three partial engines over socket
// transports; the process hosting rank 1 aborts its transport right after
// the step-60 checkpoint and exits. The survivors must drain the failure,
// re-rendezvous at 2 ranks under generation 1, resume from the step-60
// snapshot, and finish — with the final state bitwise identical to an
// uninterrupted single-rank run of the same 120 steps.
func TestRunRecoveredShrinksInProcess(t *testing.T) {
	dir := socketDirOrSkip(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	const steps, every, killAt = 120, 30, 60
	const dt = 2.0
	grid := [3]int{3, 1, 1}
	base := fccLJSystem(t, 4, 1e-3, 3)
	errAborted := errors.New("victim fault injection")

	cfg := Config{
		Grid: grid, Cutoff: testCutoff, Skin: testSkin,
		NewFF: LJFactory(testEps, testSigma),
	}

	outs := make([]recoverOutcome, 3)
	syss := make([]*md.System, 3)
	var wg sync.WaitGroup
	for id := 0; id < 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sys := base.Clone()
			syss[id] = sys
			mesh := &SocketMesh{ID: id, Dir: dir}
			opts := RecoverOpts{
				Steps: steps, Every: every, MaxRestarts: 2,
				Path: path, Mesh: mesh.Build,
			}
			if id == 1 {
				opts.OnChunk = func(gen, done int) error {
					if gen == 0 && done == killAt {
						mesh.Transport.Abort() // dies without a bye
						return errAborted
					}
					return nil
				}
			}
			stats, err := RunRecovered(cfg, sys, &Thermostat{Dt: dt}, opts)
			outs[id] = recoverOutcome{stats, err}
		}(id)
	}
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(engineFailureDeadline):
		t.Fatal("RunRecovered did not complete within the failure deadline")
	}

	if !errors.Is(outs[1].err, errAborted) {
		t.Fatalf("victim returned %v, want the injected fault", outs[1].err)
	}
	for _, id := range []int{0, 2} {
		o := outs[id]
		if o.err != nil {
			t.Fatalf("survivor %d: %v", id, o.err)
		}
		if o.stats.Restarts != 1 {
			t.Errorf("survivor %d made %d restarts, want 1", id, o.stats.Restarts)
		}
		if o.stats.ResumedStep != killAt {
			t.Errorf("survivor %d resumed from step %d, want %d", id, o.stats.ResumedStep, killAt)
		}
		if o.stats.ResumedFrom != path {
			t.Errorf("survivor %d resumed from %q, want the primary %q", id, o.stats.ResumedFrom, path)
		}
		if o.stats.DetectToResume <= 0 {
			t.Errorf("survivor %d DetectToResume = %v, want > 0", id, o.stats.DetectToResume)
		}
	}

	// Bitwise identity: the survivors' recovered run equals an
	// uninterrupted 1-rank run of the full trajectory (GatherAll lands the
	// final state on the process hosting rank 0 — original id 0).
	ref := base.Clone()
	refEng := newLJEngine(t, ref, 1)
	if r := refEng.Run(steps, dt, 0, 0); r.Err != nil {
		t.Fatal(r.Err)
	}
	refEng.Gather(ref)
	got := syss[0]
	for i := range ref.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("X[%d] after recovery %x != reference %x", i,
				math.Float64bits(got.X[i]), math.Float64bits(ref.X[i]))
		}
		if math.Float64bits(got.V[i]) != math.Float64bits(ref.V[i]) {
			t.Fatalf("V[%d] after recovery %x != reference %x", i,
				math.Float64bits(got.V[i]), math.Float64bits(ref.V[i]))
		}
	}
}

// TestRunRecoveredHonorsBudget: when every re-rendezvous fails, the driver
// stops after exactly MaxRestarts attempts with an error naming the
// exhausted budget — a crash-looping mesh cannot spin forever.
func TestRunRecoveredHonorsBudget(t *testing.T) {
	dir := socketDirOrSkip(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	const steps, every, killAt = 120, 15, 30
	const dt = 2.0
	grid := [3]int{2, 1, 1}
	base := fccLJSystem(t, 4, 1e-3, 5)
	errAborted := errors.New("victim fault injection")

	cfg := Config{
		Grid: grid, Cutoff: testCutoff, Skin: testSkin,
		NewFF: LJFactory(testEps, testSigma),
	}

	outs := make([]recoverOutcome, 2)
	var rebuildGens []int // survivor-side: generations whose Mesh was attempted
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sys := base.Clone()
			mesh := &SocketMesh{ID: id, Dir: dir}
			opts := RecoverOpts{
				Steps: steps, Every: every, MaxRestarts: 2,
				Path: path, Mesh: mesh.Build,
			}
			if id == 1 {
				opts.OnChunk = func(gen, done int) error {
					if gen == 0 && done == killAt {
						mesh.Transport.Abort()
						return errAborted
					}
					return nil
				}
			} else {
				opts.Mesh = func(gen int, survivors []int, g [3]int) (*cluster.Comm, int, func(), error) {
					if gen > 0 {
						rebuildGens = append(rebuildGens, gen)
						return nil, 0, nil, fmt.Errorf("injected rendezvous failure at generation %d", gen)
					}
					return mesh.Build(gen, survivors, g)
				}
			}
			stats, err := RunRecovered(cfg, sys, &Thermostat{Dt: dt}, opts)
			outs[id] = recoverOutcome{stats, err}
		}(id)
	}
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(engineFailureDeadline):
		t.Fatal("RunRecovered did not return within the failure deadline")
	}

	if !errors.Is(outs[1].err, errAborted) {
		t.Fatalf("victim returned %v, want the injected fault", outs[1].err)
	}
	o := outs[0]
	if o.err == nil {
		t.Fatal("survivor completed despite every rebuild failing")
	}
	if want := "restart budget 2 exhausted"; !strings.Contains(o.err.Error(), want) {
		t.Errorf("survivor error %q does not name the exhausted budget %q", o.err, want)
	}
	if o.stats.Restarts != 2 {
		t.Errorf("survivor spent %d restarts, want the full budget of 2", o.stats.Restarts)
	}
	if len(rebuildGens) != 2 || rebuildGens[0] != 1 || rebuildGens[1] != 2 {
		t.Errorf("rebuild attempts at generations %v, want [1 2]", rebuildGens)
	}
	// Discovery follows a formed mesh (TestRunRecoveredWaitsForTheWriter),
	// and none formed: no checkpoint was read.
	if o.stats.ResumedStep != 0 || o.stats.ResumedFrom != "" {
		t.Errorf("discovery ran without a mesh: step %d of %q", o.stats.ResumedStep, o.stats.ResumedFrom)
	}
}

// slowFill stalls after filling the checkpoint of step at, so the file
// still holds the one before while the other processes run on.
type slowFill struct {
	Stage
	at int64
}

func (s slowFill) Fill(cp *mlmdio.Checkpoint) error {
	err := s.Stage.Fill(cp)
	if cp.Step == s.at {
		time.Sleep(400 * time.Millisecond)
	}
	return err
}

// TestRunRecoveredWaitsForTheWriter: the process hosting rank 0 is still
// filling the kill-step checkpoint — path still holding the previous
// snapshot — when the other survivor detects the failure. Discovery
// follows the next generation's rendezvous, which the writer joins only
// after its write, so every survivor resumes at the kill
// step on its one restart. (Discovering before the rendezvous read the
// predecessor, disagreed with the writer and exhausted the budget.)
func TestRunRecoveredWaitsForTheWriter(t *testing.T) {
	dir := socketDirOrSkip(t)
	path := filepath.Join(t.TempDir(), "run.ckpt")
	const steps, every, killAt = 90, 30, 60
	const dt = 2.0
	base := fccLJSystem(t, 4, 1e-3, 3)
	errAborted := errors.New("victim fault injection")
	cfg := Config{
		Grid: [3]int{3, 1, 1}, Cutoff: testCutoff, Skin: testSkin,
		NewFF: LJFactory(testEps, testSigma),
	}

	outs := make([]recoverOutcome, 3)
	var wg sync.WaitGroup
	for id := 0; id < 3; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			mesh := &SocketMesh{ID: id, Dir: dir}
			opts := RecoverOpts{
				Steps: steps, Every: every, MaxRestarts: 1,
				Path: path, Mesh: mesh.Build,
			}
			var st Stage = &Thermostat{Dt: dt}
			if id == 0 {
				st = slowFill{st, killAt} // the writer
			}
			if id == 1 {
				opts.OnChunk = func(gen, done int) error {
					if gen == 0 && done == killAt {
						mesh.Transport.Abort()
						return errAborted
					}
					return nil
				}
			}
			stats, err := RunRecovered(cfg, base.Clone(), st, opts)
			outs[id] = recoverOutcome{stats, err}
		}(id)
	}
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(engineFailureDeadline):
		t.Fatal("RunRecovered did not complete within the failure deadline")
	}
	if !errors.Is(outs[1].err, errAborted) {
		t.Fatalf("victim returned %v, want the injected fault", outs[1].err)
	}
	for _, id := range []int{0, 2} {
		o := outs[id]
		if o.err != nil {
			t.Fatalf("survivor %d: %v", id, o.err)
		}
		if o.stats.Restarts != 1 || o.stats.ResumedStep != killAt || o.stats.ResumedFrom != path {
			t.Errorf("survivor %d: %d restarts, resumed from step %d of %q; want 1 from step %d of %q",
				id, o.stats.Restarts, o.stats.ResumedStep, o.stats.ResumedFrom, killAt, path)
		}
	}
}
