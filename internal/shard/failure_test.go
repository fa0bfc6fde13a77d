package shard

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mlmd/internal/cluster"
)

// Failure-path tests (ISSUE 6): a rank that dies mid-run must surface as a
// typed *cluster.RankFailedError naming the lost rank on every survivor,
// within bounded time — never a hang, never a leaked goroutine.

// engineFailureDeadline bounds how long a surviving engine may take to
// report a dead peer (close-detection is effectively instant; the bound
// absorbs CI scheduling noise).
const engineFailureDeadline = 30 * time.Second

// socketDirOrSkip probes for Unix-domain socket support (without the
// -short skip of mpSkip: these in-process tests are cheap enough for the
// race lane).
func socketDirOrSkip(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	ln, err := net.Listen("unix", filepath.Join(dir, "probe.sock"))
	if err != nil {
		t.Skipf("no Unix-domain socket support: %v", err)
	}
	ln.Close()
	return dir
}

// TestEngineSurvivorsReportLostRank: three partial engines over socket
// transports in one process; rank 1's transport dies mid-run. Both
// survivors' Run must return (not hang) with a RankFailedError naming
// rank 1, Engine.Err must latch it, and subsequent Run/GatherAll calls
// must short-circuit instead of hanging.
func TestEngineSurvivorsReportLostRank(t *testing.T) {
	dir := socketDirOrSkip(t)
	grid := [3]int{3, 1, 1}
	const p = 3
	base := fccLJSystem(t, 5, 1e-3, 3)

	trs := make([]*cluster.SocketTransport, p)
	engs := make([]*Engine, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := cluster.NewSocketTransport(dir, rank, p, grid)
			if err != nil {
				errs[rank] = err
				return
			}
			trs[rank] = tr
			comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
			if err != nil {
				errs[rank] = err
				return
			}
			engs[rank], errs[rank] = NewEngine(Config{
				Grid: grid, Cutoff: testCutoff, Skin: testSkin,
				NewFF: LJFactory(testEps, testSigma),
				Comm:  comm, LocalRank: rank,
			}, base.Clone())
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d setup: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for r := 0; r < p; r++ {
			engs[r].Close()
			trs[r].Close()
		}
	})

	// Survivors run a trajectory far longer than will complete; rank 1
	// never participates (its process "hangs"), then dies outright.
	type outcome struct {
		rank int
		res  RunResult
	}
	resCh := make(chan outcome, 2)
	for _, r := range []int{0, 2} {
		go func(rank int) {
			resCh <- outcome{rank, engs[rank].Run(1<<20, 2.0, 0, 0)}
		}(r)
	}
	time.Sleep(100 * time.Millisecond) // let the survivors block on rank 1
	trs[1].Abort()                     // rank 1 dies (no bye frame)

	for i := 0; i < 2; i++ {
		select {
		case o := <-resCh:
			if o.res.Err == nil {
				t.Fatalf("survivor %d completed against a dead rank", o.rank)
			}
			var rf *cluster.RankFailedError
			if !errors.As(o.res.Err, &rf) {
				t.Fatalf("survivor %d error %v is not a RankFailedError", o.rank, o.res.Err)
			}
			if rf.Rank != 1 {
				t.Errorf("survivor %d blamed rank %d, want 1", o.rank, rf.Rank)
			}
			var latched *cluster.RankFailedError
			if err := engs[o.rank].Err(); !errors.As(err, &latched) || latched.Rank != 1 {
				t.Errorf("survivor %d Engine.Err() = %v, want the latched rank-1 failure", o.rank, err)
			}
		case <-time.After(engineFailureDeadline):
			t.Fatal("survivor still running after the failure deadline")
		}
	}

	// Post-failure operations short-circuit with the same error.
	for _, r := range []int{0, 2} {
		done := make(chan RunResult, 1)
		go func(rank int) { done <- engs[rank].Run(10, 2.0, 0, 0) }(r)
		select {
		case res := <-done:
			var rf *cluster.RankFailedError
			if !errors.As(res.Err, &rf) || rf.Rank != 1 {
				t.Errorf("survivor %d post-failure Run returned %v, want rank-1 failure", r, res.Err)
			}
		case <-time.After(engineFailureDeadline):
			t.Fatalf("survivor %d post-failure Run hung", r)
		}
		sys := base.Clone()
		gdone := make(chan struct{})
		go func(rank int) { engs[rank].GatherAll(sys); close(gdone) }(r)
		select {
		case <-gdone:
		case <-time.After(engineFailureDeadline):
			t.Fatalf("survivor %d post-failure GatherAll hung", r)
		}
	}
}

// TestRunCheckpointedSurfacesFailure: the checkpointing driver loop stops
// with the typed failure instead of writing checkpoints against a dead
// mesh.
func TestRunCheckpointedSurfacesFailure(t *testing.T) {
	dir := socketDirOrSkip(t)
	grid := [3]int{2, 1, 1}
	base := fccLJSystem(t, 5, 1e-3, 4)

	trs := make([]*cluster.SocketTransport, 2)
	engs := make([]*Engine, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := cluster.NewSocketTransport(dir, rank, 2, grid)
			if err != nil {
				errs[rank] = err
				return
			}
			trs[rank] = tr
			comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
			if err != nil {
				errs[rank] = err
				return
			}
			engs[rank], errs[rank] = NewEngine(Config{
				Grid: grid, Cutoff: testCutoff, Skin: testSkin,
				NewFF: LJFactory(testEps, testSigma),
				Comm:  comm, LocalRank: rank,
			}, base.Clone())
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d setup: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for r := 0; r < 2; r++ {
			engs[r].Close()
			trs[r].Close()
		}
	})

	sys := base.Clone()
	writes := 0
	type ckptOut struct {
		res RunResult
		err error
	}
	done := make(chan ckptOut, 1)
	go func() {
		res, err := engs[0].RunCheckpointed(1<<20, 2.0, 0, 0, 50, sys,
			func(int) error { writes++; return nil })
		done <- ckptOut{res, err}
	}()
	time.Sleep(100 * time.Millisecond)
	trs[1].Abort() // dies without a bye
	select {
	case o := <-done:
		var rf *cluster.RankFailedError
		if !errors.As(o.err, &rf) || rf.Rank != 1 {
			t.Fatalf("RunCheckpointed returned %v, want rank-1 failure", o.err)
		}
		if o.res.Err == nil {
			t.Error("RunResult.Err not set alongside the returned error")
		}
	case <-time.After(engineFailureDeadline):
		t.Fatal("RunCheckpointed hung across a rank failure")
	}
}

// killCase is the worker case of TestKillWorkerMidRun: the LJ fixture on
// three balanced OS-process ranks, far longer than the test runs.
var killCase = identityCase{id: "kill/unix-3x1x1", fix: "lj", grid: [3]int{3, 1, 1}, steps: 1 << 20, skin: ownSkin, balance: balanced, transport: unixSockets}

// TestKillWorkerMidRun is the ISSUE 6 acceptance test: real OS-process
// workers on the socket transport, one killed mid-run with SIGKILL. Every
// survivor must exit, within the failure deadline, with a RankFailedError
// naming exactly the killed rank.
func TestKillWorkerMidRun(t *testing.T) {
	mpSkip(t)
	rdv, err := os.MkdirTemp("", "mlmdkill")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(rdv) })
	const size, victim = 3, 1
	cmds := make([]*exec.Cmd, size)
	outputs := make([]*strings.Builder, size)
	for r := 0; r < size; r++ {
		cmd, err := workerCmd(killCase, r, rdv, false)
		if err != nil {
			t.Fatal(err)
		}
		outputs[r] = &strings.Builder{}
		cmd.Stdout = outputs[r]
		cmd.Stderr = outputs[r]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[r] = cmd
	}
	t.Cleanup(func() {
		for _, cmd := range cmds {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// Give the mesh time to form and the run to get going, then kill the
	// victim mid-step.
	time.Sleep(2 * time.Second)
	if err := cmds[victim].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmds[victim].Wait()
	killedAt := time.Now()

	for _, r := range []int{0, 2} {
		done := make(chan error, 1)
		go func(cmd *exec.Cmd) { done <- cmd.Wait() }(cmds[r])
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("survivor %d exited cleanly despite the killed peer", r)
			}
			want := fmt.Sprintf("rank %d failed", victim)
			if got := outputs[r].String(); !strings.Contains(got, want) {
				t.Errorf("survivor %d output %q does not blame %q", r, got, want)
			}
		case <-time.After(engineFailureDeadline):
			t.Fatalf("survivor %d still running %v after the kill", r, time.Since(killedAt))
		}
	}
}

// TestFailedEngineCloseLeaksNoGoroutines: the full failure lifecycle —
// mesh up, peer dies, survivors latch, everything closed — leaves no
// engine or transport goroutines behind.
func TestFailedEngineCloseLeaksNoGoroutines(t *testing.T) {
	dir := socketDirOrSkip(t)
	before := runtime.NumGoroutine()
	func() {
		grid := [3]int{2, 1, 1}
		base := fccLJSystem(t, 4, 0, 0)
		trs := make([]*cluster.SocketTransport, 2)
		engs := make([]*Engine, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				tr, err := cluster.NewSocketTransport(dir, rank, 2, grid)
				if err != nil {
					errs[rank] = err
					return
				}
				trs[rank] = tr
				comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
				if err != nil {
					errs[rank] = err
					return
				}
				engs[rank], errs[rank] = NewEngine(Config{
					Grid: grid, Cutoff: testCutoff, Skin: testSkin,
					NewFF: LJFactory(testEps, testSigma),
					Comm:  comm, LocalRank: rank,
				}, base.Clone())
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d setup: %v", r, err)
			}
		}
		done := make(chan RunResult, 1)
		go func() { done <- engs[0].Run(1<<20, 2.0, 0, 0) }()
		time.Sleep(50 * time.Millisecond)
		trs[1].Abort() // dies without a bye
		select {
		case res := <-done:
			if res.Err == nil {
				t.Error("survivor completed against a dead rank")
			}
		case <-time.After(engineFailureDeadline):
			t.Fatal("survivor hung")
		}
		engs[0].Close()
		engs[1].Close()
		trs[0].Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("failure lifecycle leaked goroutines: %d before, %d after\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}
