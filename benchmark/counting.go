package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlmd/internal/cluster"
)

// countingTransport decorates a cluster.Transport with message and payload
// counters, handed to the engine through cluster.NewCommOver — the library
// is counted from the outside and never changes. Collectives count as one
// message of the contributed vector per call. Sizes of point-to-point sends
// are kept so the ping-pong probe can run at the workload's median size,
// and busy is the time the hosted rank spent inside transport calls
// (transfer plus waiting for the peer), which is what the rank sees of it.
type countingTransport struct {
	cluster.Transport
	msgs  atomic.Int64
	bytes atomic.Int64
	busy  atomic.Int64 // ns

	mu    sync.Mutex
	sizes []int
}

func (t *countingTransport) Send(src, dst int, data []float64, at float64) {
	t.msgs.Add(1)
	t.bytes.Add(int64(8 * len(data)))
	t.mu.Lock()
	if len(t.sizes) < cap(t.sizes) {
		t.sizes = append(t.sizes, len(data))
	}
	t.mu.Unlock()
	defer t.timed(time.Now())
	t.Transport.Send(src, dst, data, at)
}

func (t *countingTransport) timed(t0 time.Time) { t.busy.Add(int64(time.Since(t0))) }

func (t *countingTransport) Recv(dst, src int, into []float64) ([]float64, float64) {
	defer t.timed(time.Now())
	return t.Transport.Recv(dst, src, into)
}

func (t *countingTransport) Barrier(rank int, clock float64, cost cluster.CollectiveCost) float64 {
	t.msgs.Add(1)
	defer t.timed(time.Now())
	return t.Transport.Barrier(rank, clock, cost)
}

func (t *countingTransport) AllReduceSum(rank int, vec []float64, clock float64, cost cluster.CollectiveCost) float64 {
	t.msgs.Add(1)
	t.bytes.Add(int64(8 * len(vec)))
	defer t.timed(time.Now())
	return t.Transport.AllReduceSum(rank, vec, clock, cost)
}

func (t *countingTransport) AllGather(rank int, vec, into []float64, clock float64, cost cluster.CollectiveCost) ([]float64, float64) {
	t.msgs.Add(1)
	t.bytes.Add(int64(8 * len(vec)))
	defer t.timed(time.Now())
	return t.Transport.AllGather(rank, vec, into, clock, cost)
}

func (t *countingTransport) Gather(rank, root int, vec []float64, clock float64, cost cluster.CollectiveCost) ([][]float64, float64) {
	t.msgs.Add(1)
	t.bytes.Add(int64(8 * len(vec)))
	defer t.timed(time.Now())
	return t.Transport.Gather(rank, root, vec, clock, cost)
}

// medianSendElems returns the median point-to-point payload length seen
// (float64 elements), or 0 before any send.
func (t *countingTransport) medianSendElems() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.sizes) == 0 {
		return 0
	}
	s := append([]int(nil), t.sizes...)
	sort.Ints(s)
	return s[len(s)/2]
}
