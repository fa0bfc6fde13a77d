package rank

import (
	"errors"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"mlmd/internal/cluster"
)

// failedRank returns the rank a latched error names, or -1.
func failedRank(err error) int {
	var rf *cluster.RankFailedError
	if !errors.As(err, &rf) {
		return -1
	}
	return rf.Rank
}

// TestLatchNamesFailedRank: a slot that panics with a rank failure does
// not crash the process; the dispatch returns, Err names the dead rank,
// and every slot stays parked for the next dispatch.
func TestLatchNamesFailedRank(t *testing.T) {
	ran := make([]int, 3)
	rt := Start(len(ran), func(slot, op int) {
		ran[slot]++
		if op == 1 && slot == 1 {
			panic(&cluster.RankFailedError{Rank: 5})
		}
	})
	defer rt.Close()
	rt.Dispatch(0)
	if err := rt.Err(); err != nil {
		t.Fatalf("healthy runtime reports %v", err)
	}
	rt.Dispatch(1)
	if r := failedRank(rt.Err()); r != 5 {
		t.Fatalf("Err() = %v, want the rank-5 failure", rt.Err())
	}
	rt.Dispatch(0)
	for slot, n := range ran {
		if n != 3 {
			t.Errorf("slot %d ran %d ops, want 3", slot, n)
		}
	}
}

// TestFirstFailureWins: when several slots fail in one dispatch, the
// first latched failure is the one Err reports, and later failures never
// replace it.
func TestFirstFailureWins(t *testing.T) {
	const slots = 4
	var rt *Runtime
	rt = Start(slots, func(slot, _ int) {
		if slot != 0 {
			// Fail only after slot 0's failure is latched.
			for rt.Err() == nil {
				runtime.Gosched()
			}
		}
		panic(&cluster.RankFailedError{Rank: 10 + slot})
	})
	defer rt.Close()
	rt.Dispatch(0)
	if r := failedRank(rt.Err()); r != 10 {
		t.Fatalf("Err() names rank %d, want the first failure (rank 10)", r)
	}
	rt.Dispatch(0)
	if r := failedRank(rt.Err()); r != 10 {
		t.Fatalf("a later dispatch replaced the latched failure with rank %d", r)
	}
}

// TestCloseAfterFailureLeaksNoGoroutines: Close stops every slot goroutine,
// also after a failure.
func TestCloseAfterFailureLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	rt := Start(4, func(slot, _ int) {
		if slot == 2 {
			panic(&cluster.RankFailedError{Rank: 2})
		}
	})
	rt.Dispatch(0)
	if rt.Err() == nil {
		t.Fatal("failure not latched")
	}
	rt.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after Close\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestCloseTwiceIsNoOp: a second Close neither panics nor blocks.
func TestCloseTwiceIsNoOp(t *testing.T) {
	rt := Start(2, func(int, int) {})
	rt.Dispatch(0)
	rt.Close()
	rt.Close()
}

// TestDispatchAllocatesNothing pins the steady-state dispatch at zero
// allocations: the engines' 0-alloc step contract runs through it.
func TestDispatchAllocatesNothing(t *testing.T) {
	sum := make([]int, 3)
	rt := Start(len(sum), func(slot, op int) { sum[slot] += op })
	defer rt.Close()
	rt.Dispatch(1)
	if avg := testing.AllocsPerRun(200, func() { rt.Dispatch(1) }); avg != 0 {
		t.Fatalf("Dispatch allocates %.1f objects per call", avg)
	}
}

// TestOtherPanicsPropagate: a panic that is not a rank failure is a bug,
// not a dead peer, and must crash the process as it would without the
// runtime. Checked in a re-executed child.
func TestOtherPanicsPropagate(t *testing.T) {
	if os.Getenv("MLMD_RANK_PANIC_CHILD") == "1" {
		rt := Start(2, func(slot, _ int) {
			if slot == 1 {
				panic("rank: deliberate bug")
			}
		})
		rt.Dispatch(0)
		os.Exit(0) // unreachable when the panic propagates
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestOtherPanicsPropagate$")
	cmd.Env = append(os.Environ(), "MLMD_RANK_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived a non-rank-failure panic:\n%s", out)
	}
	if !strings.Contains(string(out), "rank: deliberate bug") {
		t.Fatalf("child did not die of the slot's panic:\n%s", out)
	}
}
