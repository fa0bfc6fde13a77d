package halo

import "mlmd/internal/cluster"

// Field is anything that can serialize its per-axis ghost traffic into
// flat []float64 frames. Side 0 faces the minus ring neighbor along the
// axis, side 1 the plus neighbor. Pack appends the values this rank sends
// toward that side's neighbor; Unpack consumes the frame received from
// that neighbor (which the neighbor packed for its opposite side).
//
// Pack and Unpack must be deterministic functions of the field state: the
// exchange layer guarantees delivery order, and the bitwise-identity
// contract of the engines on top holds only if packing order is too.
type Field interface {
	// Pack appends the (axis, side) send frame to buf and returns it.
	Pack(axis, side int, buf []float64) []float64
	// Unpack consumes the frame received from the (axis, side) neighbor.
	Unpack(axis, side int, buf []float64)
}

// Exchanger drives ring transfers along grid axes over a cluster.Comm,
// owning the pooled frame buffers. One Exchanger belongs to one rank; it
// is not safe for concurrent use by multiple goroutines.
//
// An axis moves its frames one of two ways. The both-directions ring
// (PostRing/FinishRing, Post/Finish) fills both faces' ghosts. Its
// operation order is fixed and identical to the particle engine's
// original wiring: send toward plus, send toward minus, receive from
// minus, receive from plus. On two-rank axes both neighbors are the same
// peer and this order is what keeps the two in-flight frames matched to
// the correct sides (FIFO per peer pair: the frame sent toward plus is
// the first one the neighbor receives, and "from minus" is received
// first). The one-sided ring (PostSide/FinishSide) fills one face's
// ghosts: one send toward one neighbor, one receive from the other, so a
// two-rank axis has a single frame in flight and nothing to match.
type Exchanger struct {
	comm *cluster.Comm
	grid cluster.Grid3D
	rank int
	send [2][]float64
	recv [2][]float64
	// bytes accumulates the payload bytes sent by this rank through the
	// exchanger (every side, all axes) for bench reporting.
	bytes int64
}

// NewExchanger returns an Exchanger for rank on grid over comm.
func NewExchanger(comm *cluster.Comm, grid cluster.Grid3D, rank int) *Exchanger {
	return &Exchanger{comm: comm, grid: grid, rank: rank}
}

// Rank returns the owning rank.
func (ex *Exchanger) Rank() int { return ex.rank }

// Grid returns the decomposition grid.
func (ex *Exchanger) Grid() cluster.Grid3D { return ex.grid }

// Comm returns the underlying communicator.
func (ex *Exchanger) Comm() *cluster.Comm { return ex.comm }

// Partitioned reports whether axis spans more than one rank.
func (ex *Exchanger) Partitioned(axis int) bool { return ex.grid.P[axis] > 1 }

// BytesSent returns the cumulative payload bytes this rank has sent
// through the exchanger.
func (ex *Exchanger) BytesSent() int64 { return ex.bytes }

// PostRing sends the two raw frames for axis: sp toward the plus
// neighbor first, then sm toward the minus neighbor. The payloads are
// copied by the transport, so the caller keeps ownership of both slices.
//
//mlmd:hotpath
func (ex *Exchanger) PostRing(axis int, sm, sp []float64) {
	minus, plus := ex.grid.AxisNeighbors(ex.rank, axis)
	ex.comm.SendBuf(ex.rank, plus, sp)
	ex.comm.SendBuf(ex.rank, minus, sm)
	ex.bytes += 8 * int64(len(sm)+len(sp))
}

// FinishRing receives the two frames for a previously posted axis ring:
// first from the minus neighbor, then from the plus neighbor. The
// returned slices alias the exchanger's pooled receive buffers and are
// valid until the next FinishRing/Finish/FinishSide/Ring/Exchange call.
//
//mlmd:hotpath
func (ex *Exchanger) FinishRing(axis int) (rm, rp []float64) {
	minus, plus := ex.grid.AxisNeighbors(ex.rank, axis)
	ex.recv[0] = ex.comm.RecvInto(ex.rank, minus, ex.recv[0])
	ex.recv[1] = ex.comm.RecvInto(ex.rank, plus, ex.recv[1])
	return ex.recv[0], ex.recv[1]
}

// Ring performs one complete both-directions transfer of raw frames
// along axis: PostRing followed by FinishRing.
//
//mlmd:hotpath
func (ex *Exchanger) Ring(axis int, sm, sp []float64) (rm, rp []float64) {
	ex.PostRing(axis, sm, sp)
	return ex.FinishRing(axis)
}

// Post packs both sides of f for axis into the pooled send frames and
// posts the ring sends. The transport copies the frames, so posts of
// other axes may follow before the matching Finish.
//
//mlmd:hotpath
func (ex *Exchanger) Post(f Field, axis int) {
	ex.send[0] = f.Pack(axis, 0, ex.send[0][:0])
	ex.send[1] = f.Pack(axis, 1, ex.send[1][:0])
	ex.PostRing(axis, ex.send[0], ex.send[1])
}

// Finish receives both frames for a posted axis and unpacks them into f,
// minus side first.
//
//mlmd:hotpath
func (ex *Exchanger) Finish(f Field, axis int) {
	rm, rp := ex.FinishRing(axis)
	f.Unpack(axis, 0, rm)
	f.Unpack(axis, 1, rp)
}

// PostSide starts the one-sided ring that fills f's side ghosts of axis:
// it packs the owned planes facing the opposite side and sends them
// toward that neighbor, which receives them from its side neighbor.
//
//mlmd:hotpath
func (ex *Exchanger) PostSide(f Field, axis, side int) {
	minus, plus := ex.grid.AxisNeighbors(ex.rank, axis)
	to := plus
	if side == 1 {
		to = minus
	}
	ex.send[0] = f.Pack(axis, 1-side, ex.send[0][:0])
	ex.comm.SendBuf(ex.rank, to, ex.send[0])
	ex.bytes += 8 * int64(len(ex.send[0]))
}

// FinishSide receives the frame of a posted one-sided ring from the side
// neighbor and unpacks it into f's side ghosts.
//
//mlmd:hotpath
func (ex *Exchanger) FinishSide(f Field, axis, side int) {
	minus, plus := ex.grid.AxisNeighbors(ex.rank, axis)
	from := minus
	if side == 1 {
		from = plus
	}
	ex.recv[side] = ex.comm.RecvInto(ex.rank, from, ex.recv[side])
	f.Unpack(axis, side, ex.recv[side])
}

// Exchange runs Post+Finish for each listed axis in order. Axes must be
// partitioned (callers skip single-rank axes, which have no ring).
//
//mlmd:hotpath
func (ex *Exchanger) Exchange(f Field, axes ...int) {
	for _, a := range axes {
		ex.Post(f, a)
		ex.Finish(f, a)
	}
}
