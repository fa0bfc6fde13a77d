package shard

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// mpSkip skips where multi-process runs are unavailable or too slow: -short
// (the race-detector lane re-executes race-built workers) and platforms
// without Unix-domain sockets.
func mpSkip(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process rows skipped under -short (socket transport is race-covered in internal/cluster)")
	}
	dir, err := os.MkdirTemp("", "mlmdmp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ln, err := net.Listen("unix", filepath.Join(dir, "probe.sock"))
	if err != nil {
		t.Skipf("no Unix-domain socket support: %v", err)
	}
	ln.Close()
}

// recoverCase is the worker case of TestAutoRecoveryAfterKill: the LJ
// fixture on four balanced OS-process ranks.
var recoverCase = identityCase{id: "recover/unix-2x2x1", fix: "lj", grid: [3]int{2, 2, 1}, steps: 160, skin: ownSkin, balance: balanced, transport: unixSockets}

// runMPRecoverWorker is the self-healing variant of the worker: the run
// goes through RunRecovered with rotating checkpoints in the rendezvous
// dir, so when a peer is SIGKILLed the survivors shrink and resume on
// their own. A worker with MLMD_WORKER_KILLSTEP set SIGKILLs itself right
// after that chunk boundary (no bye frame, exactly a crashed host). The
// process hosting the final rank 0 writes the outcome; every survivor
// prints its recovery stats for the parent to assert.
func runMPRecoverWorker(c identityCase, rank int, rdv string) error {
	fx := identityFixtures[c.fix]
	s, err := fx.particle()
	if err != nil {
		return err
	}
	sys, cfg := s.sys, s.cfg
	cfg.Grid = c.grid
	cfg.Balance = true
	cfg.BalanceCost = fx.cost
	every, err := strconv.Atoi(os.Getenv("MLMD_WORKER_EVERY"))
	if err != nil {
		return err
	}
	maxRestarts, err := strconv.Atoi(os.Getenv("MLMD_WORKER_MAXRESTARTS"))
	if err != nil {
		return err
	}
	killStep := 0
	if s := os.Getenv("MLMD_WORKER_KILLSTEP"); s != "" {
		if killStep, err = strconv.Atoi(s); err != nil {
			return err
		}
	}
	mesh := &SocketMesh{ID: rank, Dir: rdv}
	ropts := RecoverOpts{
		Steps: c.steps, Every: every, MaxRestarts: maxRestarts,
		Path: filepath.Join(rdv, "run.ckpt"), Mesh: mesh.Build,
	}
	if killStep > 0 {
		ropts.OnChunk = func(gen, done int) error {
			if gen == 0 && done >= killStep {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
			return nil
		}
	}
	th := &Thermostat{Dt: fx.dt}
	stats, err := RunRecovered(cfg, sys, th, ropts)
	if err != nil {
		return err
	}
	if killStep > 0 {
		return fmt.Errorf("victim survived its own SIGKILL at step %d", killStep)
	}
	fmt.Printf("recover: rank %d restarts=%d resumed=%d detect_to_resume=%v\n",
		rank, stats.Restarts, stats.ResumedStep, stats.DetectToResume)
	if mesh.Transport.Rank() != 0 {
		return nil
	}
	return writeOutcome(rdv, outcome{frames: [][]float64{particleFrame(sys)}, obs: []float64{th.Last.PE, th.Last.KE}})
}

// TestAutoRecoveryAfterKill: four OS-process workers run the LJ fixture
// through RunRecovered; one SIGKILLs itself right after the step-80
// checkpoint. The three survivors must shrink to a fresh generation-1
// mesh, resume from that snapshot with no operator action, and finish a
// trajectory bitwise identical to the uninterrupted in-process 1-rank run
// — recovery may move atoms between ranks, never the physics.
func TestAutoRecoveryAfterKill(t *testing.T) {
	mpSkip(t)
	const every, killStep, victim = 40, 80, 3
	ref := reference(t, recoverCase.fix, recoverCase.steps)
	rdv, err := os.MkdirTemp("", "mlmdrecover")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(rdv) })
	outputs, werrs := startWorkers(recoverCase, rdv, false, func(r int) []string {
		env := []string{"MLMD_WORKER_RECOVER=1", "MLMD_WORKER_EVERY=" + strconv.Itoa(every), "MLMD_WORKER_MAXRESTARTS=2"}
		if r == victim {
			env = append(env, "MLMD_WORKER_KILLSTEP="+strconv.Itoa(killStep))
		}
		return env
	})
	if werrs[victim] == nil {
		t.Errorf("victim exited cleanly, want death by SIGKILL\n%s", outputs[victim])
	}
	for r := range outputs {
		if r == victim {
			continue
		}
		if werrs[r] != nil {
			t.Fatalf("survivor %d: %v\n%s", r, werrs[r], outputs[r])
		}
		if got := string(outputs[r]); !strings.Contains(got, "restarts=1") || !strings.Contains(got, fmt.Sprintf("resumed=%d", killStep)) {
			t.Errorf("survivor %d stats %q, want one restart resumed from step %d", r, got, killStep)
		}
	}
	o, err := readOutcome(rdv)
	if err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(o.last(), ref.last()); i >= 0 {
		t.Errorf("recovered trajectory is not bitwise the uninterrupted 1x1x1 run: %s differs", ref.describe(i, recoverCase.fix))
	}
	checkObs(t, recoverCase.fix, ref, o)
}
