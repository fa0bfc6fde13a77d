package cluster

import (
	"fmt"
	"sync"
)

// Comm is an MPI-like communicator whose clocks advance in virtual time:
// every operation records modeled seconds on the calling rank, and
// synchronizing operations (barrier, allreduce) align clocks to the slowest
// participant — exactly how a bulk-synchronous code experiences load
// imbalance. Message payloads are real (correctness is testable); only the
// clock is simulated.
//
// The message plumbing lives behind the Transport interface: NewComm runs
// every rank as a goroutine of the calling process over the in-process
// channel transport, while NewCommOver accepts an external transport — for
// a multi-process run each OS process builds its Comm over a
// SocketTransport and hosts a single rank, and the clocks of remote ranks
// simply stay untouched in that process (each collective still aligns the
// local rank's clock to the global slowest through the transport).
type Comm struct {
	size int
	net  Interconnect
	tr   Transport
	// clocks[rank] is the per-rank virtual time; only ranks hosted by this
	// process ever advance theirs.
	clocks []float64
	mu     sync.Mutex
	// Per-collective cost hooks, built once so hot collectives allocate no
	// closures per call.
	costBarrier   CollectiveCost
	costReduce    CollectiveCost
	costGather    CollectiveCost
	costAllGather CollectiveCost
}

// NewComm builds a communicator of the given size over the network model,
// using the in-process channel transport (ranks are goroutines of this
// process).
func NewComm(size int, net Interconnect) (*Comm, error) {
	if size < 1 {
		return nil, fmt.Errorf("cluster: communicator size %d", size)
	}
	return NewCommOver(newChanTransport(size), net)
}

// NewCommOver builds a communicator over an existing transport (e.g. a
// SocketTransport spanning several OS processes) with the given network
// model for the virtual clock.
func NewCommOver(tr Transport, net Interconnect) (*Comm, error) {
	size := tr.Size()
	if size < 1 {
		return nil, fmt.Errorf("cluster: transport size %d", size)
	}
	c := &Comm{size: size, net: net, tr: tr, clocks: make([]float64, size)}
	n, p := net, size
	c.costBarrier = func(worst float64, _ int) float64 { return worst + n.AllReduce(p, 8) }
	c.costReduce = func(worst float64, total int) float64 { return worst + n.AllReduce(p, 8*float64(total)) }
	c.costGather = func(worst float64, total int) float64 { return worst + n.Gather(p, 8*float64(total)) }
	c.costAllGather = func(worst float64, total int) float64 {
		return worst + n.AllGather(p, 8*float64(total)/float64(p))
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.size }

// Transport returns the transport the communicator runs over (e.g. for the
// owner to Close a socket transport after the run).
func (c *Comm) Transport() Transport { return c.tr }

// Clock returns rank's current virtual time (seconds).
func (c *Comm) Clock(rank int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clocks[rank]
}

// AdvanceClock adds modeled compute seconds to rank's clock.
func (c *Comm) AdvanceClock(rank int, seconds float64) {
	c.mu.Lock()
	c.clocks[rank] += seconds
	c.mu.Unlock()
}

// alignClock raises rank's clock to at least t (receives and collectives
// never move a clock backwards).
func (c *Comm) alignClock(rank int, t float64) {
	c.mu.Lock()
	if t > c.clocks[rank] {
		c.clocks[rank] = t
	}
	c.mu.Unlock()
}

// depart pays the injection overhead alpha on src's clock and returns the
// modeled arrival time of a message of n float64s.
func (c *Comm) depart(src, n int) float64 {
	c.mu.Lock()
	t := c.clocks[src] + c.net.Alpha
	c.clocks[src] = t
	c.mu.Unlock()
	return t + 8*float64(n)*c.net.Beta
}

// SendBuf transmits data from rank src to dst (non-blocking up to the
// transport's buffering). The sender's clock pays the injection overhead
// alpha. The transport copies data into a recycled buffer, so the caller
// keeps ownership of data and messaging allocates nothing once the
// receiver uses RecvInto.
func (c *Comm) SendBuf(src, dst int, data []float64) {
	c.tr.Send(src, dst, data, c.depart(src, len(data)))
}

// RecvInto blocks until a message from src arrives at dst, copies it into
// the provided buffer (grown if needed) and releases the transport buffer
// back to its pool. It returns the filled buffer and advances dst's clock
// to max(own, message arrival time).
func (c *Comm) RecvInto(dst, src int, into []float64) []float64 {
	into, at := c.tr.Recv(dst, src, into)
	c.alignClock(dst, at)
	return into
}

// Barrier synchronizes all ranks and aligns every clock to the slowest rank
// plus the modeled barrier cost.
func (c *Comm) Barrier(rank int) {
	aligned := c.tr.Barrier(rank, c.Clock(rank), c.costBarrier)
	c.alignClock(rank, aligned)
}

// AllReduceSumInPlace sums vec elementwise across all ranks, overwriting
// every rank's vec with the total, and aligns clocks to the slowest rank
// plus the modeled collective time. It is allocation-free in steady state:
// the transport sums into a pooled buffer and each rank receives the total
// into its own vec. Every rank must pass a vec of the same length.
func (c *Comm) AllReduceSumInPlace(rank int, vec []float64) {
	aligned := c.tr.AllReduceSum(rank, vec, c.Clock(rank), c.costReduce)
	c.alignClock(rank, aligned)
}

// AllGather concatenates every rank's vec in rank order and delivers the
// full profile to all ranks, copied into each caller's into buffer (grown
// if needed; the filled buffer is returned). Allocation-free in steady
// state when into has capacity. Vectors may differ in length; offsets
// follow rank order. Clocks align to the slowest rank plus the modeled
// ring-allgather time of the mean per-rank contribution (a function of the
// total gathered bytes, so the virtual clock is deterministic even with
// unequal vector lengths).
func (c *Comm) AllGather(rank int, vec, into []float64) []float64 {
	into, aligned := c.tr.AllGather(rank, vec, into, c.Clock(rank), c.costAllGather)
	c.alignClock(rank, aligned)
	return into
}

// Gather collects each rank's vec at root (others receive nil), aligning
// clocks. The modeled payload size is rank 0's contribution length, so the
// virtual clock stays deterministic with unequal vector lengths.
func (c *Comm) Gather(rank, root int, vec []float64) [][]float64 {
	parts, aligned := c.tr.Gather(rank, root, vec, c.Clock(rank), c.costGather)
	c.alignClock(rank, aligned)
	return parts
}

// MaxClock returns the slowest hosted rank's clock — the wall-clock of a
// bulk-synchronous step. (In a multi-process run each process hosts one
// rank; after any collective that rank's clock already carries the global
// alignment.)
func (c *Comm) MaxClock() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var worst float64
	for _, t := range c.clocks {
		if t > worst {
			worst = t
		}
	}
	return worst
}
