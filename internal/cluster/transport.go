package cluster

import (
	"fmt"
	"sync"
)

// CollectiveCost maps the slowest participant's virtual clock (and the
// collective's modeled element count) to the aligned post-collective clock.
// Comm builds one per collective kind at construction, capturing the
// Interconnect model, so transports stay free of cost modeling and the hot
// collectives allocate no closures per call.
type CollectiveCost func(worst float64, totalElems int) float64

// Transport moves framed []float64 payloads between the ranks of a
// communicator and implements its collective rendezvous. Comm owns the
// virtual clocks and the alpha-beta cost model; the transport only carries
// clock values: a point-to-point message travels with its modeled arrival
// time, and a collective contributes each rank's clock and returns the
// aligned clock computed by the cost hook.
//
// Two implementations exist: the in-process channel transport behind
// NewComm (rank goroutines, per-pair mailbox channels, allocation-free in
// steady state), and the multi-process socket transport
// (NewSocketTransport, NewTCPTransport) whose ranks live in separate OS
// processes and speak the internal/cluster/wire frame format. Both run the
// same collectives over their point-to-point mailboxes: every contribution
// fans in to a root, which combines in ascending rank order and fans the
// result out with the aligned clock.
//
// Contract shared by both: payload floats are carried bit-exactly, per
// ordered (src, dst) pair delivery is FIFO and shared by point-to-point
// frames and collectives (a frame left unread before a collective is read
// as a contribution), and every collective combines contributions in
// ascending rank order — so a bulk-synchronous caller (the shard engine)
// produces bitwise-identical trajectories over either transport.
type Transport interface {
	// Size returns the rank count the transport spans.
	Size() int
	// Send delivers data from src to dst with virtual arrival time at.
	// The slice is only borrowed for the duration of the call.
	Send(src, dst int, data []float64, at float64)
	// Recv blocks for the next message from src addressed to dst, copies
	// its payload into into (grown if needed) and returns the filled slice
	// plus the message's virtual arrival time.
	Recv(dst, src int, into []float64) ([]float64, float64)
	// Barrier parks the calling rank until every rank arrived, returning
	// the aligned clock cost(max over contributed clocks, 0).
	Barrier(rank int, clock float64, cost CollectiveCost) float64
	// AllReduceSum overwrites vec with the elementwise sum of every rank's
	// vec, accumulated in ascending rank order, and returns the aligned
	// clock. Every rank must pass a vec of the same length.
	AllReduceSum(rank int, vec []float64, clock float64, cost CollectiveCost) float64
	// AllGather concatenates every rank's vec in rank order into into
	// (grown if needed; vectors may differ in length), returning the filled
	// slice and the aligned clock.
	AllGather(rank int, vec, into []float64, clock float64, cost CollectiveCost) ([]float64, float64)
	// Gather collects each rank's vec at root as per-rank copies (nil at
	// every other rank), returning the aligned clock to all ranks.
	Gather(rank, root int, vec []float64, clock float64, cost CollectiveCost) ([][]float64, float64)
	// Close releases the transport's resources (sockets, goroutines). The
	// in-process transport has none and treats Close as a no-op.
	Close() error
}

// poolMaxBufs caps how many payload buffers a bufPool retains; beyond it a
// returned buffer either evicts a smaller pooled one or is dropped, so a
// long run with occasional burst traffic cannot grow the pool without
// bound.
const poolMaxBufs = 64

// bufPool recycles []float64 payload buffers between sends and receives so
// steady-state messaging allocates nothing. get is best-fit — it returns
// the pooled buffer with the smallest adequate capacity — rather than
// first-fit, so a tiny request can no longer capture a huge buffer (which
// would then serve tiny messages forever while large messages allocate
// fresh: the PR 5 hoarding bug).
type bufPool struct {
	mu   sync.Mutex
	bufs [][]float64
}

// get returns a pooled buffer of length n (contents undefined), choosing
// the smallest pooled capacity >= n, or a fresh allocation when none fits.
func (p *bufPool) get(n int) []float64 {
	p.mu.Lock()
	best := -1
	for i, b := range p.bufs {
		if c := cap(b); c >= n && (best < 0 || c < cap(p.bufs[best])) {
			best = i
		}
	}
	if best >= 0 {
		b := p.bufs[best]
		last := len(p.bufs) - 1
		p.bufs[best] = p.bufs[last]
		p.bufs = p.bufs[:last]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]float64, n)
}

// put returns a buffer to the pool. When the pool is full it evicts the
// smallest retained buffer if the incoming one has more capacity (large
// buffers are the expensive ones to reallocate) and otherwise drops the
// incoming buffer, keeping the pool size bounded by poolMaxBufs.
func (p *bufPool) put(b []float64) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.bufs) < poolMaxBufs {
		p.bufs = append(p.bufs, b)
		p.mu.Unlock()
		return
	}
	smallest := 0
	for i := 1; i < len(p.bufs); i++ {
		if cap(p.bufs[i]) < cap(p.bufs[smallest]) {
			smallest = i
		}
	}
	if cap(p.bufs[smallest]) < cap(b) {
		p.bufs[smallest] = b
	}
	p.mu.Unlock()
}

// len reports the current pool size (tests).
func (p *bufPool) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.bufs)
}

// frame is one in-flight point-to-point payload: a pooled buffer and its
// modeled arrival time at the receiver.
type frame struct {
	data []float64
	time float64
}

// mailbox is the point-to-point layer each transport provides and the
// collectives run over. Send posts a copy of data from src to dst (a
// pooled frame in process, a wire frame to a remote rank); take pops the
// next frame from src at dst, FIFO per ordered pair, and the caller
// returns the frame's buffer to the pool.
type mailbox interface {
	Send(src, dst int, data []float64, at float64)
	take(dst, src int) frame
}

// collectives implements Recv and the four collectives of Transport once,
// over a transport's mailbox: non-root ranks post their contribution to the
// root and take the result back; the root takes one frame per rank in
// ascending rank order, combines, and fans the result out with the aligned
// clock cost(slowest contributed clock, modeled element count). Both
// transports embed it, so their summation order agrees by construction.
// Only the root touches ag, and every rank takes part in each collective,
// so no two calls use it at once.
type collectives struct {
	mb   mailbox
	size int
	pool bufPool
	// ag is the root's retained concatenation buffer of AllGather.
	ag []float64
}

// Size implements Transport.
func (c *collectives) Size() int { return c.size }

// Recv implements Transport, releasing the frame's buffer back to the pool
// after copying it out.
func (c *collectives) Recv(dst, src int, into []float64) ([]float64, float64) {
	f := c.mb.take(dst, src)
	into = fill(into, f.data)
	c.pool.put(f.data)
	return into, f.time
}

// Barrier implements Transport (an AllReduceSum of an empty vector).
func (c *collectives) Barrier(rank int, clock float64, cost CollectiveCost) float64 {
	return c.AllReduceSum(rank, nil, clock, cost)
}

// AllReduceSum implements Transport: rank 0 sums the contributions in
// ascending rank order, starting from zero, so every transport and every
// rank count adds the same floats in the same order.
func (c *collectives) AllReduceSum(rank int, vec []float64, clock float64, cost CollectiveCost) float64 {
	if rank != 0 {
		f := c.leaf(rank, 0, vec, clock)
		copy(vec, f.data)
		c.pool.put(f.data)
		return f.time
	}
	red := c.pool.get(len(vec))
	clear(red)
	for i, v := range vec {
		red[i] += v
	}
	worst := clock
	for src := 1; src < c.size; src++ {
		f := c.mb.take(0, src)
		if len(f.data) != len(vec) {
			panic(fmt.Sprintf("cluster: allreduce length %d from rank %d, want %d", len(f.data), src, len(vec)))
		}
		for i, v := range f.data {
			red[i] += v
		}
		worst = max(worst, f.time)
		c.pool.put(f.data)
	}
	aligned := cost(worst, len(vec))
	copy(vec, red)
	c.pool.put(red)
	c.fanOut(0, vec, aligned)
	return aligned
}

// AllGather implements Transport: rank 0 concatenates the contributions in
// rank order into its retained buffer; the cost hook receives the total
// gathered element count.
func (c *collectives) AllGather(rank int, vec, into []float64, clock float64, cost CollectiveCost) ([]float64, float64) {
	if rank != 0 {
		f := c.leaf(rank, 0, vec, clock)
		into = fill(into, f.data)
		c.pool.put(f.data)
		return into, f.time
	}
	c.ag = append(c.ag[:0], vec...)
	worst := clock
	for src := 1; src < c.size; src++ {
		f := c.mb.take(0, src)
		c.ag = append(c.ag, f.data...)
		worst = max(worst, f.time)
		c.pool.put(f.data)
	}
	aligned := cost(worst, len(c.ag))
	c.fanOut(0, c.ag, aligned)
	return fill(into, c.ag), aligned
}

// Gather implements Transport: contributions fan in to root, which returns
// fresh per-rank copies and answers every rank with the aligned clock. The
// modeled element count is rank 0's contribution length, which is the same
// at every root.
func (c *collectives) Gather(rank, root int, vec []float64, clock float64, cost CollectiveCost) ([][]float64, float64) {
	if rank != root {
		f := c.leaf(rank, root, vec, clock)
		c.pool.put(f.data)
		return nil, f.time
	}
	parts := make([][]float64, c.size)
	parts[root] = append([]float64(nil), vec...)
	worst := clock
	for src := 0; src < c.size; src++ {
		if src == root {
			continue
		}
		f := c.mb.take(root, src)
		parts[src] = append([]float64(nil), f.data...)
		worst = max(worst, f.time)
		c.pool.put(f.data)
	}
	aligned := cost(worst, len(parts[0]))
	c.fanOut(root, nil, aligned)
	return parts, aligned
}

// leaf is a non-root rank's side of a collective: post vec to root and take
// the result frame back (the caller recycles its buffer).
func (c *collectives) leaf(rank, root int, vec []float64, clock float64) frame {
	c.mb.Send(rank, root, vec, clock)
	return c.mb.take(rank, root)
}

// fanOut posts the root's result with the aligned clock to every other rank.
func (c *collectives) fanOut(root int, data []float64, aligned float64) {
	for dst := 0; dst < c.size; dst++ {
		if dst != root {
			c.mb.Send(root, dst, data, aligned)
		}
	}
}

// fill copies src into into, growing into if needed, and returns it.
func fill(into, src []float64) []float64 {
	if cap(into) < len(src) {
		into = make([]float64, len(src))
	}
	into = into[:len(src)]
	copy(into, src)
	return into
}

// chanTransport is the in-process Transport: rank goroutines exchange
// pooled frames over per-pair mailbox channels, and the collectives run
// over those mailboxes exactly as they run over sockets.
type chanTransport struct {
	collectives
	// chans[dst][src] is the mailbox from src to dst.
	chans [][]chan frame
}

// newChanTransport builds the in-process transport for size ranks.
func newChanTransport(size int) *chanTransport {
	t := &chanTransport{chans: make([][]chan frame, size)}
	t.mb, t.size = t, size
	for dst := range t.chans {
		t.chans[dst] = make([]chan frame, size)
		for src := range t.chans[dst] {
			// Headroom over the frames one pair holds in flight (a halo
			// ring posts two when one rank is both neighbours, a
			// collective one), so a sender seldom waits on its receiver.
			t.chans[dst][src] = make(chan frame, 8)
		}
	}
	return t
}

// Send implements Transport: the payload is copied into a pooled buffer, so
// the caller keeps ownership of data and steady-state messaging is
// allocation-free once the receiver recycles the buffer.
func (t *chanTransport) Send(src, dst int, data []float64, at float64) {
	payload := t.pool.get(len(data))
	copy(payload, data)
	t.chans[dst][src] <- frame{data: payload, time: at}
}

// take implements mailbox.
func (t *chanTransport) take(dst, src int) frame { return <-t.chans[dst][src] }

// Close implements Transport (no-op: channels are garbage collected).
func (t *chanTransport) Close() error { return nil }
