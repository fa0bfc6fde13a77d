package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlmd/internal/cluster/wire"
)

// defaultDialTimeout bounds how long a rank waits for its peers' sockets to
// appear at start-up (workers of one launch start within milliseconds of
// each other; the generous bound covers race-built test binaries on loaded
// CI hosts). Overridable per transport via SocketOptions.DialTimeout and
// globally via the MLMD_DIAL_TIMEOUT environment variable.
const defaultDialTimeout = 30 * time.Second

// DialTimeoutEnv is the environment variable overriding the default peer
// dial/handshake timeout (a Go duration string, e.g. "5s"). An explicit
// SocketOptions.DialTimeout wins over the environment.
const DialTimeoutEnv = "MLMD_DIAL_TIMEOUT"

// socketInboxDepth is the per-peer mailbox depth, mirroring the channel
// transport's mailbox capacity with headroom for the two-sides-per-axis
// halo pattern.
const socketInboxDepth = 64

// heartbeatDivisor sets the ping period as PeerTimeout/heartbeatDivisor, so
// several heartbeats fit inside one read-deadline window and a single
// delayed ping cannot fail a healthy peer.
const heartbeatDivisor = 3

// SocketOptions tunes the failure-detection envelope of a socket transport.
// The zero value preserves the PR 5 behavior: a 30 s dial/handshake bound
// (or MLMD_DIAL_TIMEOUT) and no steady-state health checking beyond
// connection-close detection.
type SocketOptions struct {
	// DialTimeout bounds connection establishment and the handshake
	// exchange at start-up. 0 means MLMD_DIAL_TIMEOUT if set, else 30 s.
	DialTimeout time.Duration
	// PeerTimeout, when positive, arms the steady-state health model: every
	// connection carries a read deadline of PeerTimeout per frame and a
	// heartbeat goroutine pings all peers every PeerTimeout/3, so a peer
	// that hangs without closing its socket (or becomes unreachable) is
	// declared failed within about one PeerTimeout. 0 disables heartbeats
	// and deadlines; a killed peer is still detected instantly through the
	// connection close.
	PeerTimeout time.Duration
	// Generation is the mesh generation tag carried in the wire handshake
	// and, for rendezvous-based transports, in the published address names.
	// A fresh launch is generation 0; every automatic shrink-and-resume
	// after a rank failure increments it, so a straggler process of the
	// dead mesh can neither be dialed (its published address carries the
	// old generation) nor join (its handshake is rejected).
	Generation int
}

// dial returns the effective dial/handshake timeout.
func (o SocketOptions) dial() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	if s := os.Getenv(DialTimeoutEnv); s != "" {
		if d, err := time.ParseDuration(s); err == nil && d > 0 {
			return d
		}
	}
	return defaultDialTimeout
}

// SocketAddr returns the Unix-domain socket path rank listens on under the
// rendezvous directory (shared between the launcher and its workers).
func SocketAddr(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("r%d.sock", rank))
}

// socketAddrGen is SocketAddr for a specific mesh generation: generation 0
// keeps the legacy name, later generations are tagged so a rebuilt mesh
// never dials (or accepts a dial meant for) a socket of the dead one.
func socketAddrGen(dir string, rank, gen int) string {
	if gen == 0 {
		return SocketAddr(dir, rank)
	}
	return filepath.Join(dir, fmt.Sprintf("g%d.r%d.sock", gen, rank))
}

// sockPeer is one established connection to a remote rank.
type sockPeer struct {
	conn net.Conn
	// mu serializes frame writes (collectives, point-to-point sends of the
	// single hosted rank, and the heartbeat goroutine share the connection).
	mu sync.Mutex
	w  *wire.Writer
	// delay is an injected per-send latency in nanoseconds (fault-injection
	// hook; 0 in production).
	delay atomic.Int64
}

// SocketTransport is the multi-process Transport: every rank lives in its
// own OS process, listens on a Unix-domain or TCP socket, and holds one
// full-duplex connection per peer (rank i dials every j < i, so the mesh
// forms without a routing hub). Each connection opens with a versioned
// wire.Handshake carrying rank, size and grid shape, which both sides
// verify under a deadline — mismatched launches and half-connected peers
// fail fast.
//
// Per-peer reader goroutines drain incoming frames into pooled buffers, so
// simultaneous bulk sends from both ends of a connection cannot deadlock on
// kernel socket buffers. The collectives are the embedded ones every
// transport shares, run over the same connections as point-to-point
// traffic.
//
// A SocketTransport hosts exactly one rank: only that rank may appear as
// the src of Send / the dst of Recv / the rank of a collective. Closing the
// transport tears down the sockets.
//
// Failure model (fail-stop, job granularity): the full mesh gives every
// rank a direct connection to every peer, so a dying peer is observed
// directly by all survivors — as a connection close, a failed write, or
// (with SocketOptions.PeerTimeout) a missed read deadline. The first
// failure latches a transport-wide signal; every blocked and every
// subsequent Send/Recv/collective then panics with a *RankFailedError
// naming the lost rank instead of hanging. See RankFailedError for how the
// shard engine converts the panic into a driver-visible error.
type SocketTransport struct {
	collectives
	rank    int
	grid    [3]int
	network string
	opts    SocketOptions
	ln      net.Listener
	peers   []*sockPeer
	inbox   []chan frame
	closed  atomic.Bool
	readErr sync.Map // src rank -> error
	// failure latch: the first peer failure stores the typed error and
	// closes failedCh, waking every blocked take on this process. failMu
	// guards failedRanks, the cumulative set of ranks this process has
	// blamed — concurrent and duplicate reports are idempotent, every
	// report after the first reuses the latched error (so one survivor
	// never names two different culprits), and FailedRanks exposes the
	// whole set so a recovery driver shrinks past every lost rank.
	failMu      sync.Mutex
	failedRanks map[int]error
	failed      atomic.Pointer[RankFailedError]
	failedCh    chan struct{}
	stop        chan struct{}
	wg          sync.WaitGroup
}

// NewSocketTransport connects rank (of size ranks arranged on grid) to its
// peers through Unix-domain sockets under dir, blocking until the full
// connection mesh is up. Every rank of the communicator must be started
// with the same dir, size and grid; the handshake rejects mismatches.
func NewSocketTransport(dir string, rank, size int, grid [3]int) (*SocketTransport, error) {
	return NewSocketTransportOpts(dir, rank, size, grid, SocketOptions{})
}

// NewSocketTransportOpts is NewSocketTransport with explicit
// failure-detection options.
func NewSocketTransportOpts(dir string, rank, size int, grid [3]int, opts SocketOptions) (*SocketTransport, error) {
	addr := func(j int) (string, error) { return socketAddrGen(dir, j, opts.Generation), nil }
	return newSocketTransport("unix", socketAddrGen(dir, rank, opts.Generation), nil, addr, rank, size, grid, opts)
}

// newSocketTransport builds the mesh over the given network ("unix" or
// "tcp"). listenAddr is this rank's listen address; publish (optional) runs
// after the listener is bound, for rendezvous schemes that must announce a
// kernel-assigned port; peerAddr resolves the address of lower rank j for
// dialing (an error means "not published yet — retry until the dial
// deadline").
func newSocketTransport(network, listenAddr string, publish func(net.Listener) error, peerAddr func(int) (string, error), rank, size int, grid [3]int, opts SocketOptions) (*SocketTransport, error) {
	if size < 1 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("cluster: socket transport rank %d of size %d", rank, size)
	}
	t := &SocketTransport{
		rank: rank, grid: grid,
		network: network, opts: opts,
		failedCh: make(chan struct{}),
		stop:     make(chan struct{}),
	}
	t.mb, t.size = t, size
	t.peers = make([]*sockPeer, size)
	t.inbox = make([]chan frame, size)
	for i := range t.inbox {
		t.inbox[i] = make(chan frame, socketInboxDepth)
	}
	if size == 1 {
		return t, nil
	}
	ln, err := net.Listen(network, listenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: socket transport listen %s %s: %w", network, listenAddr, err)
	}
	t.ln = ln
	if publish != nil {
		if err := publish(ln); err != nil {
			t.Close()
			return nil, err
		}
	}
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- t.acceptPeers() }()
	dialErr := t.dialPeers(peerAddr)
	setupErr := <-acceptErr
	if setupErr == nil {
		setupErr = dialErr
	} else if dialErr != nil {
		setupErr = fmt.Errorf("%v; %v", setupErr, dialErr)
	}
	if setupErr != nil {
		t.Close()
		return nil, setupErr
	}
	// Every peer is connected, so a later dial at this address can only come
	// from another mesh generation: refuse it (the dialer retries) instead of
	// parking it in the backlog of a listener that never accepts again — a
	// multi-host survivor rebinds this very endpoint for the next generation.
	t.closeListener()
	for src, p := range t.peers {
		if p == nil {
			continue
		}
		t.wg.Add(1)
		go t.readLoop(src, p)
	}
	if opts.PeerTimeout > 0 {
		t.wg.Add(1)
		go t.heartbeat()
	}
	return t, nil
}

// handshake returns this transport's identity frame.
func (t *SocketTransport) handshake() wire.Handshake {
	return wire.Handshake{Rank: t.rank, Size: t.size, Grid: t.grid, Gen: t.opts.Generation}
}

// checkPeer validates a received handshake against this transport's view of
// the run.
func (t *SocketTransport) checkPeer(h wire.Handshake) error {
	if h.Gen != t.opts.Generation {
		return fmt.Errorf("cluster: peer handshake generation %d, want %d (straggler of a torn-down mesh)",
			h.Gen, t.opts.Generation)
	}
	if h.Size != t.size || h.Grid != t.grid {
		return fmt.Errorf("cluster: peer handshake size %d grid %v, want size %d grid %v",
			h.Size, h.Grid, t.size, t.grid)
	}
	if h.Rank == t.rank || t.peers[h.Rank] != nil {
		return fmt.Errorf("cluster: duplicate handshake from rank %d", h.Rank)
	}
	return nil
}

// deadlineListener is the SetDeadline seam shared by net.UnixListener and
// net.TCPListener.
type deadlineListener interface {
	SetDeadline(time.Time) error
}

// acceptPeers accepts one connection from every higher rank (which dial
// us), verifying and answering each handshake. The listener carries the
// same deadline the dialers use, so a worker that dies before connecting
// fails this rank's start-up instead of parking it forever; each accepted
// connection additionally carries a read/write deadline across the
// handshake exchange, so a peer that connects but never completes the
// handshake fails fast instead of stalling the mesh.
func (t *SocketTransport) acceptPeers() error {
	deadline := time.Now().Add(t.opts.dial())
	if dl, ok := t.ln.(deadlineListener); ok {
		dl.SetDeadline(deadline)
	}
	for n := t.size - 1 - t.rank; n > 0; n-- {
		conn, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: socket transport accept: %w", err)
		}
		conn.SetDeadline(deadline)
		// Raw-conn reader: wire reads exact frame sizes, so no bytes of any
		// data frame racing in behind the handshake can be swallowed (a
		// buffered reader would prefetch them into a throwaway buffer).
		h, err := wire.NewReader(conn).ReadHandshake()
		if err == nil {
			err = t.checkPeer(h)
		}
		if err == nil && h.Rank < t.rank {
			err = fmt.Errorf("cluster: rank %d dialed rank %d (lower ranks accept)", h.Rank, t.rank)
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("cluster: handshake accept: %w", err)
		}
		p := &sockPeer{conn: conn, w: wire.NewWriter(conn)}
		if err := p.w.WriteHandshake(t.handshake()); err != nil {
			conn.Close()
			return fmt.Errorf("cluster: handshake reply to rank %d: %w", h.Rank, err)
		}
		conn.SetDeadline(time.Time{})
		t.peers[h.Rank] = p
	}
	return nil
}

// dialPeers connects to every lower rank, retrying until the peer's address
// resolves and its listener answers (workers start asynchronously) or the
// timeout expires. The wait between retries starts at 100 µs and doubles
// up to 10 ms: a listener that comes up a moment after the first dial is
// reached within a fraction of a millisecond, and a slow one is not polled
// hard. The handshake exchange on each fresh connection runs under the
// same deadline.
func (t *SocketTransport) dialPeers(peerAddr func(int) (string, error)) error {
	deadline := time.Now().Add(t.opts.dial())
	for j := 0; j < t.rank; j++ {
		var conn net.Conn
		var err error
		wait := 100 * time.Microsecond
		for {
			var addr string
			addr, err = peerAddr(j)
			if err == nil {
				conn, err = net.Dial(t.network, addr)
			}
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(wait)
			wait = min(2*wait, 10*time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("cluster: socket transport dial rank %d: %w", j, err)
		}
		conn.SetDeadline(deadline)
		p := &sockPeer{conn: conn, w: wire.NewWriter(conn)}
		if err := p.w.WriteHandshake(t.handshake()); err != nil {
			conn.Close()
			return fmt.Errorf("cluster: handshake to rank %d: %w", j, err)
		}
		h, err := wire.NewReader(conn).ReadHandshake() // raw conn: see acceptPeers
		if err == nil {
			err = t.checkPeer(h)
		}
		if err == nil && h.Rank != j {
			err = fmt.Errorf("cluster: rank %d answered on rank %d's socket", h.Rank, j)
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("cluster: handshake with rank %d: %w", j, err)
		}
		conn.SetDeadline(time.Time{})
		t.peers[j] = p
	}
	return nil
}

// peerFailed latches an observed peer failure and wakes every blocked take.
// The first report stores the transport-wide error; later reports (for the
// same or a different rank) keep the first error — fail-stop: one lost rank
// already dooms the mesh generation, and naming the first latched rank keeps
// every report from this survivor consistent even when several ranks die in
// the same window. Every reported rank is recorded in failedRanks so the
// recovery driver can shrink past all of them at once.
func (t *SocketTransport) peerFailed(rank int, err error) {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	if t.failedRanks == nil {
		t.failedRanks = make(map[int]error)
	}
	if _, dup := t.failedRanks[rank]; !dup {
		t.failedRanks[rank] = err
	}
	if t.failed.Load() == nil {
		t.failed.Store(&RankFailedError{Rank: rank, Err: err})
		close(t.failedCh)
	}
}

// FailedRanks returns the sorted set of ranks this transport has latched as
// failed (empty while the mesh is healthy). After a *RankFailedError, a
// recovery driver uses it to exclude every lost rank from the rebuilt mesh,
// not only the first one the error names.
func (t *SocketTransport) FailedRanks() []int {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	ranks := make([]int, 0, len(t.failedRanks))
	for r := range t.failedRanks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// lostRank builds the typed panic value for a rank whose connection died.
func (t *SocketTransport) lostRank(src int) *RankFailedError {
	err, _ := t.readErr.Load(src)
	e, _ := err.(error)
	return &RankFailedError{Rank: src, Err: e}
}

// peerLeft reports whether dst announced a graceful departure (bye frame).
// A write to such a peer failing is not evidence that dst crashed — it shut
// down on purpose, usually because it detected the real failure first.
func (t *SocketTransport) peerLeft(dst int) bool {
	v, ok := t.readErr.Load(dst)
	if !ok {
		return false
	}
	e, _ := v.(error)
	return errors.Is(e, wire.ErrBye)
}

// grace is the window a write-side or inbox-close signal waits for a
// read-side signal to latch the root cause before assigning blame itself.
func (t *SocketTransport) grace() time.Duration {
	if t.opts.PeerTimeout > 0 {
		return t.opts.PeerTimeout
	}
	return time.Second
}

// sendFailed picks the panic value for a failed write to dst. A failed write
// is ambiguous: dst may have crashed, or it may have shut down cleanly after
// detecting a failure elsewhere — its bye frame and the root-cause EOF may
// still be in flight through our read loops. Wait briefly for a read-side
// signal to latch the root cause; a real crash of dst latches through our
// own read loop's EOF within the same window, so blame stays correct either
// way and only the rare half-open connection pays the full grace period.
func (t *SocketTransport) sendFailed(dst int, err error) *RankFailedError {
	select {
	case <-t.failedCh:
	case <-t.stop:
		// Teardown in flight: don't park a blame decision (and the Close
		// that waits for it) behind the full grace period.
	case <-time.After(t.grace()):
	}
	t.peerFailed(dst, err)
	return t.failed.Load()
}

// recvClosed picks the panic value when src's inbox closed under a blocked
// take. A crashed src was latched by its read loop before the inbox closed;
// a graceful bye from src means the root cause is elsewhere in the mesh —
// wait for it to latch before blaming a rank that shut down cleanly. Either
// way the latch, once set, is the answer: it names the first failure this
// survivor saw, so every report stays consistent when several ranks die in
// one window. Only a bye with nothing ever latched blames src itself.
func (t *SocketTransport) recvClosed(src int) *RankFailedError {
	if t.peerLeft(src) {
		select {
		case <-t.failedCh:
		case <-t.stop:
		case <-time.After(t.grace()):
		}
	}
	if f := t.failed.Load(); f != nil {
		return f
	}
	return t.lostRank(src)
}

// heartbeat pings every peer at PeerTimeout/3 until Close, so the
// per-frame read deadlines on the receiving side never expire on a healthy
// but idle connection. A failed ping write latches the peer as failed.
func (t *SocketTransport) heartbeat() {
	defer t.wg.Done()
	period := t.opts.PeerTimeout / heartbeatDivisor
	if period <= 0 {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		for dst, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			p.conn.SetWriteDeadline(time.Now().Add(t.opts.PeerTimeout))
			err := p.w.WritePing()
			p.mu.Unlock()
			if err != nil && !t.closed.Load() && !t.peerLeft(dst) {
				// Same grace as send: don't let a ping's broken pipe blame a
				// peer whose bye (or whose killer's EOF) is still in flight.
				// The blame goroutine joins the WaitGroup (Add is safe here:
				// the heartbeat goroutine itself still holds a count), so a
				// concurrent Close drains it instead of leaking it.
				t.wg.Add(1)
				//lint:allow poolonly failure-blame goroutine joins the transport WaitGroup; exceptional path, not a fan-out
				go func(dst int, err error) {
					defer t.wg.Done()
					t.sendFailed(dst, err)
				}(dst, fmt.Errorf("heartbeat: %w", err))
			}
		}
	}
}

// readLoop drains src's connection into the inbox, pooling payload buffers.
// Connection setup read exactly the handshake frame from the raw
// connection, so wrapping the remaining stream in a buffered reader here
// loses nothing. With a peer timeout armed, every frame must start within
// PeerTimeout of the previous one (heartbeats keep healthy idle
// connections inside the window).
func (t *SocketTransport) readLoop(src int, p *sockPeer) {
	defer t.wg.Done()
	r := wire.NewReader(bufio.NewReaderSize(p.conn, 1<<16))
	if t.opts.PeerTimeout > 0 {
		// Re-arm the read deadline before every frame — heartbeats included,
		// so an idle-but-alive peer is never declared dead, while a silent
		// one trips the deadline within PeerTimeout.
		r.SetPreFrame(func() error {
			return p.conn.SetReadDeadline(time.Now().Add(t.opts.PeerTimeout))
		})
	}
	get := t.pool.get
	for {
		data, clock, err := r.ReadData(get)
		if err != nil {
			if !t.closed.Load() {
				t.readErr.Store(src, err)
				if errors.Is(err, wire.ErrBye) {
					// Graceful departure: the peer finished its work and
					// closed in an orderly way (ranks leave a final
					// collective at different times, so this is routine).
					// Receiving directly from it still fails, but the
					// mesh-wide failure latch stays clear — only a crash
					// (bare EOF, no bye) declares a rank dead.
					close(t.inbox[src])
					return
				}
				t.peerFailed(src, err)
				close(t.inbox[src])
			}
			return
		}
		select {
		case t.inbox[src] <- frame{data: data, time: clock}:
		case <-t.stop:
			// Nobody will drain a full inbox once teardown starts; bailing
			// out here keeps Close's wg.Wait from deadlocking on this loop.
			t.pool.put(data)
			return
		}
	}
}

// Rank returns the rank this process hosts.
func (t *SocketTransport) Rank() int { return t.rank }

// Network returns the transport's socket family ("unix" or "tcp").
func (t *SocketTransport) Network() string {
	if t.network == "" {
		return "unix"
	}
	return t.network
}

// DropPeer severs the connection to rank as if that peer had died
// (fault-injection hook for failure-path tests; no-op for self or unknown
// ranks). Both ends observe the close: this process's read loop latches
// rank as failed, and the peer's read loop latches this rank.
func (t *SocketTransport) DropPeer(rank int) {
	if rank < 0 || rank >= t.size || rank == t.rank || t.peers[rank] == nil {
		return
	}
	t.peers[rank].conn.Close()
}

// DelayPeer injects d of extra latency before every subsequent send to rank
// (fault-injection hook; d = 0 restores normal sending). With a peer
// timeout armed, a delay beyond the timeout makes the peer declare this
// rank dead — the "slow is dead" half of the failure model.
func (t *SocketTransport) DelayPeer(rank int, d time.Duration) {
	if rank < 0 || rank >= t.size || rank == t.rank || t.peers[rank] == nil {
		return
	}
	t.peers[rank].delay.Store(int64(d))
}

// Send implements Transport: src must be the hosted rank. A self-send
// queues a pooled copy through the local inbox, mirroring the channel
// transport's self-mailbox; any other frame goes straight onto the wire.
func (t *SocketTransport) Send(src, dst int, data []float64, at float64) {
	t.hosted(src)
	if dst == t.rank {
		buf := t.pool.get(len(data))
		copy(buf, data)
		t.inbox[dst] <- frame{data: buf, time: at}
		return
	}
	p := t.peers[dst]
	if p == nil {
		panic(fmt.Sprintf("cluster: socket transport has no connection to rank %d", dst))
	}
	if d := p.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	p.mu.Lock()
	if t.opts.PeerTimeout > 0 {
		p.conn.SetWriteDeadline(time.Now().Add(t.opts.PeerTimeout))
	}
	err := p.w.WriteData(at, data)
	p.mu.Unlock()
	if err != nil {
		panic(t.sendFailed(dst, fmt.Errorf("send: %w", err)))
	}
}

// take implements mailbox: dst must be the hosted rank. It pops the next
// frame from src, panicking with a *RankFailedError if any peer of the mesh
// was lost mid-run — the failure latch wakes takes blocked on healthy peers
// too, so a survivor waiting on a rank that is itself stuck behind the dead
// one unblocks within the detection bound instead of inheriting the hang.
func (t *SocketTransport) take(dst, src int) frame {
	t.hosted(dst)
	select {
	case m, ok := <-t.inbox[src]:
		if !ok {
			panic(t.recvClosed(src))
		}
		return m
	case <-t.failedCh:
		// Prefer a frame that raced in ahead of the failure signal, so the
		// failure report never precedes data already delivered. A closed
		// inbox is not a frame: whether src crashed (and was latched by its
		// read loop) or said an orderly goodbye after the failure, the
		// latch holds the root cause — blaming src here would name a rank
		// that merely shut down cleanly.
		select {
		case m, ok := <-t.inbox[src]:
			if ok {
				return m
			}
		default:
		}
		panic(t.failed.Load())
	}
}

// hosted panics unless rank is the rank this process hosts.
func (t *SocketTransport) hosted(rank int) {
	if rank != t.rank {
		panic(fmt.Sprintf("cluster: socket transport hosts rank %d, not rank %d", t.rank, rank))
	}
}

// Close implements Transport: announces a graceful departure to every peer
// (a bye frame, so survivors mid-collective don't mistake the close for a
// crash — ranks leave a final collective at different times), then tears
// down the listener, connections, reader and heartbeat goroutines, and
// removes the rank's socket file (unix) or published address file (TCP
// rendezvous).
func (t *SocketTransport) Close() error {
	return t.shutdown(true)
}

// Abort tears the transport down like Close but WITHOUT the goodbye
// announcement — connections just vanish, exactly as when the process is
// killed (the kernel closes sockets without writing any bye frame). Every
// peer therefore latches this rank as failed. Fault-injection hook for
// failure-path tests; production shutdown uses Close.
func (t *SocketTransport) Abort() error {
	return t.shutdown(false)
}

// closeListener closes the listener, if still open, and removes its Unix
// socket file.
func (t *SocketTransport) closeListener() error {
	if t.ln == nil {
		return nil
	}
	addr := t.ln.Addr().String()
	err := t.ln.Close()
	if t.network == "unix" {
		os.Remove(addr)
	}
	t.ln = nil
	return err
}

// shutdown is the shared teardown of Close (bye = true) and Abort.
func (t *SocketTransport) shutdown(bye bool) error {
	if t.closed.Swap(true) {
		return nil
	}
	close(t.stop)
	if bye {
		for _, p := range t.peers {
			if p != nil {
				p.mu.Lock()
				p.w.WriteBye() // best-effort: the peer may already be gone
				p.mu.Unlock()
			}
		}
	}
	first := t.closeListener()
	for _, p := range t.peers {
		if p != nil {
			if err := p.conn.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	t.wg.Wait()
	return first
}
