package cluster

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mlmd/internal/cluster/wire"
)

// failureDeadline bounds how long a survivor may take to surface a peer
// failure in these tests. Close-detection is effectively instant (EOF on
// the mesh connection); the generous bound absorbs CI scheduling noise.
const failureDeadline = 10 * time.Second

// recvFailure runs op (expected to block on a dead/failing mesh) and
// returns the *RankFailedError it panics with, or fails the test if op
// returns normally or panics with something else or takes longer than
// failureDeadline.
func recvFailure(t *testing.T, op func()) *RankFailedError {
	t.Helper()
	ch := make(chan *RankFailedError, 1)
	go func() {
		defer func() {
			r := recover()
			if r == nil {
				ch <- nil
				return
			}
			rf, ok := AsRankFailure(r)
			if !ok {
				panic(r)
			}
			ch <- rf
		}()
		op()
	}()
	select {
	case rf := <-ch:
		if rf == nil {
			t.Fatal("operation on a dead mesh returned normally")
		}
		return rf
	case <-time.After(failureDeadline):
		t.Fatal("operation on a dead mesh still blocked after the failure deadline")
		return nil
	}
}

// TestPeerDeathNamesLostRank (ISSUE 6 tentpole): when one rank of a 3-rank
// mesh dies, BOTH survivors' blocked receives surface a typed
// *RankFailedError naming exactly the lost rank, within the failure
// deadline — no hang, no anonymous EOF.
func TestPeerDeathNamesLostRank(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	trs := startSocketMesh(t, dir, 3, [3]int{3, 1, 1})

	// Healthy round first: the mesh works before the failure.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); trs[0].Send(0, 2, []float64{1}, 0) }()
	go func() { defer wg.Done(); trs[2].Recv(2, 0, nil) }()
	wg.Wait()

	trs[1].Abort() // rank 1 "dies" (a killed process never sends a bye frame)

	wg.Add(2)
	for _, survivor := range []int{0, 2} {
		go func(r int) {
			defer wg.Done()
			// Block on the DEAD rank directly…
			rf := recvFailure(t, func() { trs[r].Recv(r, 1, nil) })
			if rf.Rank != 1 {
				t.Errorf("survivor %d blamed rank %d, want 1 (err: %v)", r, rf.Rank, rf)
			}
			if !strings.Contains(rf.Error(), "rank 1 failed") {
				t.Errorf("survivor %d error %q does not name the lost rank", r, rf)
			}
			// …and every subsequent operation fails the same way instead of
			// hanging (collectives would route through the dead rank).
			rf = recvFailure(t, func() { trs[r].Barrier(r, 0, func(w float64, n int) float64 { return w }) })
			if rf.Rank != 1 {
				t.Errorf("survivor %d post-failure barrier blamed rank %d, want 1", r, rf.Rank)
			}
		}(survivor)
	}
	wg.Wait()
}

// TestRecvOnHealthyPeerUnblocksOnFailure: a receive blocked on a perfectly
// healthy peer (which simply hasn't sent yet) must ALSO unblock when some
// third rank dies — otherwise a survivor waiting its turn in a collective
// would hang forever even though the failure was detected.
func TestRecvOnHealthyPeerUnblocksOnFailure(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	trs := startSocketMesh(t, dir, 3, [3]int{3, 1, 1})

	done := make(chan *RankFailedError, 1)
	go func() {
		defer func() {
			rf, _ := AsRankFailure(recover())
			done <- rf
		}()
		trs[0].Recv(0, 2, nil) // rank 2 is healthy but silent
	}()
	time.Sleep(50 * time.Millisecond) // let the recv block
	trs[1].Abort()                    // unrelated rank dies
	select {
	case rf := <-done:
		if rf == nil || rf.Rank != 1 {
			t.Fatalf("blocked recv surfaced %v, want rank-1 failure", rf)
		}
	case <-time.After(failureDeadline):
		t.Fatal("recv on healthy peer still blocked after an unrelated rank died")
	}
}

// TestDropPeerFaultInjection (ISSUE 6 satellite): the transport-seam fault
// hook severs one link; both endpoints of the dropped link report the
// OTHER side as failed (each sees its direct connection die).
func TestDropPeerFaultInjection(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	trs := startSocketMesh(t, dir, 2, [3]int{2, 1, 1})
	trs[0].DropPeer(0) // self: no-op
	trs[0].DropPeer(7) // out of range: no-op
	trs[0].DropPeer(1) // sever the only link
	rf := recvFailure(t, func() { trs[1].Recv(1, 0, nil) })
	if rf.Rank != 0 {
		t.Errorf("rank 1 blamed rank %d, want 0", rf.Rank)
	}
	rf = recvFailure(t, func() { trs[0].Recv(0, 1, nil) })
	if rf.Rank != 1 {
		t.Errorf("rank 0 blamed rank %d, want 1", rf.Rank)
	}
}

// TestDelayPeerFaultInjection: the delay hook slows a link without killing
// it — traffic still arrives bit-exact, just later. (The companion
// heartbeat tests prove delays below PeerTimeout do not trip detection.)
func TestDelayPeerFaultInjection(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	trs := startSocketMesh(t, dir, 2, [3]int{2, 1, 1})
	trs[0].DelayPeer(0, time.Millisecond) // self: no-op
	trs[0].DelayPeer(1, 30*time.Millisecond)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); trs[0].Send(0, 1, []float64{42}, 7) }()
	got, clock := trs[1].Recv(1, 0, nil)
	wg.Wait()
	if len(got) != 1 || got[0] != 42 || clock != 7 {
		t.Fatalf("delayed payload %v clock %v", got, clock)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Error("delayed send arrived before the injected delay elapsed")
	}
}

// TestHeartbeatDetectsSilentPeer (ISSUE 6 tentpole): a peer that keeps its
// connection open but goes completely silent (hung process, partitioned
// host) is detected by the per-frame read deadline: with PeerTimeout set,
// a blocked receive surfaces the failure within ~PeerTimeout instead of
// waiting forever for bytes that never come.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	const peerTimeout = 300 * time.Millisecond
	opts := SocketOptions{PeerTimeout: peerTimeout}

	// Rank 0 is a real transport; "rank 1" is a hand-rolled client that
	// completes the handshake and then plays dead without closing.
	var tr0 *SocketTransport
	var err0 error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr0, err0 = NewSocketTransportOpts(dir, 0, 2, [3]int{2, 1, 1}, opts)
	}()
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		conn, err = net.Dial("unix", SocketAddr(dir, 0))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial rank 0: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer conn.Close()
	w := wire.NewWriter(conn)
	if err := w.WriteHandshake(wire.Handshake{Rank: 1, Size: 2, Grid: [3]int{2, 1, 1}}); err != nil {
		t.Fatalf("handshake send: %v", err)
	}
	if _, err := wire.NewReader(conn).ReadHandshake(); err != nil {
		t.Fatalf("handshake reply: %v", err)
	}
	wg.Wait()
	if err0 != nil {
		t.Fatal(err0)
	}
	defer tr0.Close()

	start := time.Now()
	rf := recvFailure(t, func() { tr0.Recv(0, 1, nil) })
	if rf.Rank != 1 {
		t.Errorf("blamed rank %d, want 1", rf.Rank)
	}
	if elapsed := time.Since(start); elapsed < peerTimeout/2 {
		t.Errorf("silent peer declared dead after only %v (timeout %v)", elapsed, peerTimeout)
	}
}

// TestHeartbeatKeepsIdlePeersAlive: with PeerTimeout set, a mesh that
// exchanges NO application traffic for several timeout periods must stay
// healthy — the heartbeat frames (invisible to wire.ReadData) reset the
// read deadlines. This is what lets tight deadlines coexist with
// long-running compute phases between exchanges.
func TestHeartbeatKeepsIdlePeersAlive(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	const peerTimeout = 200 * time.Millisecond
	trs := make([]*SocketTransport, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			trs[rank], errs[rank] = NewSocketTransportOpts(dir, rank, 2, [3]int{2, 1, 1},
				SocketOptions{PeerTimeout: peerTimeout})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()

	time.Sleep(4 * peerTimeout) // idle well past the timeout

	wg.Add(1)
	go func() { defer wg.Done(); trs[0].Send(0, 1, []float64{9.5}, 3) }()
	got, clock := trs[1].Recv(1, 0, nil)
	wg.Wait()
	if len(got) != 1 || got[0] != 9.5 || clock != 3 {
		t.Fatalf("post-idle exchange got %v clock %v; heartbeats failed to keep the mesh alive", got, clock)
	}
}

// TestFailureLeavesNoGoroutines: after a rank dies and the survivors close,
// no transport goroutines (read loops, heartbeats) linger.
func TestFailureLeavesNoGoroutines(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	before := runtime.NumGoroutine()
	func() {
		trs := make([]*SocketTransport, 3)
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				trs[rank], errs[rank] = NewSocketTransportOpts(dir, rank, 3, [3]int{3, 1, 1},
					SocketOptions{PeerTimeout: 500 * time.Millisecond})
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		trs[1].Abort() // dies without a bye
		recvFailure(t, func() { trs[0].Recv(0, 1, nil) })
		for _, tr := range trs {
			tr.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked across failure + close: %d before, %d after\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestRankFailedErrorShape: the typed error unwraps to its cause and is
// recognisable through errors.As from wrapped chains.
func TestRankFailedErrorShape(t *testing.T) {
	cause := errors.New("connection reset")
	rf := &RankFailedError{Rank: 3, Err: cause}
	if !errors.Is(rf, cause) {
		t.Error("RankFailedError does not unwrap to its cause")
	}
	wrapped := error(rf)
	var got *RankFailedError
	if !errors.As(wrapped, &got) || got.Rank != 3 {
		t.Error("errors.As failed to recover *RankFailedError")
	}
	if _, ok := AsRankFailure("unrelated panic"); ok {
		t.Error("AsRankFailure accepted a non-failure panic value")
	}
	if rf2, ok := AsRankFailure(rf); !ok || rf2.Rank != 3 {
		t.Error("AsRankFailure rejected a real failure")
	}
}

// TestRecvAfterFailureBlamesLatchedRank pins the failure-path rule that a
// receive woken by the failure latch reports the latched root cause, not
// the peer it happened to be waiting on: rank 1 crashes (latched), then
// rank 2 — having noticed — leaves with an orderly bye, which closes its
// inbox on rank 0. A recv(2) on rank 0 now sees both the closed inbox and
// the fired latch; whichever select arm wins, the panic must name rank 1.
// (The latch arm used to build a fresh "rank 2 failed: peer said goodbye"
// error, which failed TestKillWorkerMidRun about one run in ten under load.)
func TestRecvAfterFailureBlamesLatchedRank(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	trs := startSocketMesh(t, dir, 3, [3]int{3, 1, 1})
	tr := trs[0]

	trs[1].Abort() // rank 1 crashes: no bye
	select {
	case <-tr.failedCh:
	case <-time.After(failureDeadline):
		t.Fatal("rank 0 never latched rank 1's crash")
	}
	latched := tr.failed.Load()
	if latched == nil || latched.Rank != 1 {
		t.Fatalf("latched failure %v, want rank 1", latched)
	}

	trs[2].Close() // rank 2 leaves in an orderly way, after the failure
	deadline := time.Now().Add(failureDeadline)
	for closed := false; !closed; {
		select {
		case _, ok := <-tr.inbox[2]:
			closed = !ok
		default:
			if time.Now().After(deadline) {
				t.Fatal("rank 2's bye never closed its inbox on rank 0")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if !tr.peerLeft(2) {
		t.Fatal("rank 2's inbox closed without a recorded bye")
	}

	// Both select arms of take are ready now and Go picks one at random:
	// repeat until each has surely been taken.
	for i := 0; i < 64; i++ {
		rf := recvFailure(t, func() { tr.take(0, 2) })
		if rf != latched {
			t.Fatalf("attempt %d: take(0, 2) panicked with %v, want the latched %v", i, rf, latched)
		}
	}
}
