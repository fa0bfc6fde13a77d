package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStrayFrameFailsCollective: collectives share each ordered pair's FIFO
// mailbox with point-to-point frames on every transport, so a frame left
// unread before a collective is read as a contribution. One of the wrong
// length fails the root with the same panic in process and over sockets.
func TestStrayFrameFailsCollective(t *testing.T) {
	t.Run("chan", func(t *testing.T) {
		c, err := NewComm(2, Interconnect{})
		if err != nil {
			t.Fatal(err)
		}
		strayFrameFailsRoot(t, c, c)
	})
	t.Run("unix", func(t *testing.T) {
		socks := startSocketMesh(t, skipWithoutUnixSockets(t), 2, [3]int{2, 1, 1})
		c0, err := NewCommOver(socks[0], Interconnect{})
		if err != nil {
			t.Fatal(err)
		}
		c1, err := NewCommOver(socks[1], Interconnect{})
		if err != nil {
			t.Fatal(err)
		}
		strayFrameFailsRoot(t, c0, c1)
	})
}

// strayFrameFailsRoot leaves a 2-float frame from rank 1 unread at rank 0,
// runs a 3-float AllReduceSumInPlace on both ranks, and checks that rank 0
// panics naming the stray frame's length and sender.
func strayFrameFailsRoot(t *testing.T, c0, c1 *Comm) {
	t.Helper()
	c1.SendBuf(1, 0, []float64{1, 2})
	root := make(chan any, 1)
	go func() {
		defer func() { root <- recover() }()
		c0.AllReduceSumInPlace(0, make([]float64, 3))
	}()
	leaf := make(chan struct{})
	go func() {
		defer close(leaf)
		c1.AllReduceSumInPlace(1, make([]float64, 3))
	}()
	select {
	case r := <-root:
		if msg := fmt.Sprint(r); !strings.Contains(msg, "allreduce length 2 from rank 1") {
			t.Errorf("rank 0 recovered %q, want the allreduce length panic", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rank 0 neither panicked nor returned")
	}
	// Rank 1 waits for the result rank 0 never sent; answer it so it leaves.
	c0.SendBuf(0, 1, make([]float64, 3))
	<-leaf
}

// BenchmarkCollectiveAllReduce times one 1-float AllReduceSumInPlace per
// op: in process at 2, 4 and 8 ranks, and over a 2-rank Unix socket pair.
func BenchmarkCollectiveAllReduce(b *testing.B) {
	benchCollective(b, func(c *Comm, rank int, vec, _ []float64) []float64 {
		vec[0] = 1
		c.AllReduceSumInPlace(rank, vec)
		return nil
	})
}

// BenchmarkCollectiveAllGather times one AllGather of 1 float per rank per
// op, on the same rank counts and transports.
func BenchmarkCollectiveAllGather(b *testing.B) {
	benchCollective(b, func(c *Comm, rank int, vec, out []float64) []float64 {
		return c.AllGather(rank, vec, out)
	})
}

// benchCollective runs op on every rank: ranks 1.. on their own goroutines,
// rank 0 on the timed one. op gets the rank's 1-float vec and its retained
// output buffer and returns the buffer to keep.
func benchCollective(b *testing.B, op func(c *Comm, rank int, vec, out []float64) []float64) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("chan-%d", p), func(b *testing.B) {
			c, err := NewComm(p, Slingshot11())
			if err != nil {
				b.Fatal(err)
			}
			comms := make([]*Comm, p)
			for r := range comms {
				comms[r] = c
			}
			runCollective(b, comms, op)
		})
	}
	b.Run("unix-2", func(b *testing.B) {
		socks := startSocketMesh(b, skipWithoutUnixSockets(b), 2, [3]int{2, 1, 1})
		comms := make([]*Comm, len(socks))
		for r, tr := range socks {
			c, err := NewCommOver(tr, Slingshot11())
			if err != nil {
				b.Fatal(err)
			}
			comms[r] = c
		}
		runCollective(b, comms, op)
	})
}

// runCollective runs b.N timed rounds of op after one warm-up round, with
// comms[r] the communicator rank r calls.
func runCollective(b *testing.B, comms []*Comm, op func(c *Comm, rank int, vec, out []float64) []float64) {
	rounds := b.N + 1
	var wg sync.WaitGroup
	for r := 1; r < len(comms); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			vec := []float64{float64(rank)}
			var out []float64
			for i := 0; i < rounds; i++ {
				out = op(comms[rank], rank, vec, out)
			}
		}(r)
	}
	vec := []float64{0}
	out := op(comms[0], 0, vec, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i < rounds; i++ {
		out = op(comms[0], 0, vec, out)
	}
	b.StopTimer()
	wg.Wait()
}
