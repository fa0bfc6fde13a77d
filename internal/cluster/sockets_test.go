package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
)

// skipWithoutUnixSockets skips on platforms where Unix-domain listeners are
// unavailable (the multi-process transport is POSIX-only by design).
func skipWithoutUnixSockets(t testing.TB) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "mlmdsock")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ln, err := net.Listen("unix", SocketAddr(dir, 99))
	if err != nil {
		t.Skipf("no Unix-domain socket support: %v", err)
	}
	ln.Close()
	os.Remove(SocketAddr(dir, 99))
	return dir
}

// startSocketMesh brings up one SocketTransport per rank (all in this
// process, which exercises the full wire path — each transport only ever
// touches its own rank).
func startSocketMesh(t testing.TB, dir string, size int, grid [3]int) []*SocketTransport {
	t.Helper()
	trs := make([]*SocketTransport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			trs[rank], errs[rank] = NewSocketTransport(dir, rank, size, grid)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

// TestSocketTransportPointToPoint: framed payloads cross the socket mesh
// bit-exactly, FIFO per ordered pair, with the clock stamp intact.
func TestSocketTransportPointToPoint(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	trs := startSocketMesh(t, dir, 3, [3]int{3, 1, 1})
	var wg sync.WaitGroup
	payload := []float64{1.5, math.Copysign(0, -1), math.Inf(-1), 3e-300}
	wg.Add(2)
	go func() {
		defer wg.Done()
		trs[0].Send(0, 2, payload, 7.25)
		trs[0].Send(0, 2, []float64{42}, 8.5)
	}()
	go func() {
		defer wg.Done()
		got, clock := trs[2].Recv(2, 0, nil)
		if clock != 7.25 || len(got) != len(payload) {
			t.Errorf("first message: clock %v len %d", clock, len(got))
		}
		for i := range payload {
			if math.Float64bits(got[i]) != math.Float64bits(payload[i]) {
				t.Errorf("element %d: %x want %x", i, math.Float64bits(got[i]), math.Float64bits(payload[i]))
			}
		}
		got, clock = trs[2].Recv(2, 0, got)
		if clock != 8.5 || len(got) != 1 || got[0] != 42 {
			t.Errorf("second message: %v clock %v", got, clock)
		}
	}()
	wg.Wait()
}

// TestSocketCollectivesMatchChannelTransport: every collective of the
// socket transport produces bitwise the results of the in-process channel
// transport on the same per-rank inputs — the transport-independence
// contract that makes multi-process trajectories bitwise identical.
func TestSocketCollectivesMatchChannelTransport(t *testing.T) {
	const p = 4
	dir := skipWithoutUnixSockets(t)
	socks := startSocketMesh(t, dir, p, [3]int{2, 2, 1})
	chans := newChanTransport(p)
	cost := func(worst float64, total int) float64 { return worst + 1e-6 + 1e-9*float64(total) }

	rng := rand.New(rand.NewSource(11))
	vecs := make([][]float64, p)
	allg := make([][]float64, p)
	for r := range vecs {
		vecs[r] = make([]float64, 5)
		for i := range vecs[r] {
			vecs[r][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5))
		}
		allg[r] = make([]float64, 1+r) // unequal lengths
		for i := range allg[r] {
			allg[r][i] = float64(100*r + i)
		}
	}
	clocks := []float64{0.5, 3.25, 1.125, 2}

	type out struct {
		red     []float64
		redClk  float64
		ag      []float64
		agClk   float64
		parts   [][]float64
		gatherC float64
		barrier float64
	}
	run := func(tr Transport) []out {
		outs := make([]out, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				o := &outs[rank]
				o.red = append([]float64(nil), vecs[rank]...)
				o.redClk = tr.AllReduceSum(rank, o.red, clocks[rank], cost)
				o.ag, o.agClk = tr.AllGather(rank, allg[rank], nil, clocks[rank], cost)
				var c float64
				o.parts, c = tr.Gather(rank, 1, vecs[rank], clocks[rank], cost)
				o.gatherC = c
				o.barrier = tr.Barrier(rank, clocks[rank], cost)
			}(r)
		}
		wg.Wait()
		return outs
	}
	want := run(chans)
	got := run(Transport(socksMux{socks}))
	for r := 0; r < p; r++ {
		if fmt.Sprint(got[r].red) != fmt.Sprint(want[r].red) {
			t.Errorf("rank %d allreduce %v, want %v", r, got[r].red, want[r].red)
		}
		for i := range want[r].red {
			if math.Float64bits(got[r].red[i]) != math.Float64bits(want[r].red[i]) {
				t.Errorf("rank %d allreduce bit mismatch at %d", r, i)
			}
		}
		if got[r].redClk != want[r].redClk || got[r].agClk != want[r].agClk ||
			got[r].gatherC != want[r].gatherC || got[r].barrier != want[r].barrier {
			t.Errorf("rank %d clocks %v/%v/%v/%v want %v/%v/%v/%v", r,
				got[r].redClk, got[r].agClk, got[r].gatherC, got[r].barrier,
				want[r].redClk, want[r].agClk, want[r].gatherC, want[r].barrier)
		}
		if fmt.Sprint(got[r].ag) != fmt.Sprint(want[r].ag) {
			t.Errorf("rank %d allgather %v, want %v", r, got[r].ag, want[r].ag)
		}
		if (r == 1) != (got[r].parts != nil) {
			t.Errorf("rank %d gather parts presence wrong", r)
		}
		if r == 1 && fmt.Sprint(got[r].parts) != fmt.Sprint(want[r].parts) {
			t.Errorf("rank %d gather %v, want %v", r, got[r].parts, want[r].parts)
		}
	}
}

// socksMux adapts the per-rank socket transports to the Transport interface
// for side-by-side runs against the channel transport (each method routes
// to the calling rank's own transport, as separate processes would).
type socksMux struct{ trs []*SocketTransport }

// Size implements Transport.
func (m socksMux) Size() int { return len(m.trs) }

// Send implements Transport.
func (m socksMux) Send(src, dst int, data []float64, at float64) { m.trs[src].Send(src, dst, data, at) }

// Recv implements Transport.
func (m socksMux) Recv(dst, src int, into []float64) ([]float64, float64) {
	return m.trs[dst].Recv(dst, src, into)
}

// Barrier implements Transport.
func (m socksMux) Barrier(rank int, clock float64, cost CollectiveCost) float64 {
	return m.trs[rank].Barrier(rank, clock, cost)
}

// AllReduceSum implements Transport.
func (m socksMux) AllReduceSum(rank int, vec []float64, clock float64, cost CollectiveCost) float64 {
	return m.trs[rank].AllReduceSum(rank, vec, clock, cost)
}

// AllGather implements Transport.
func (m socksMux) AllGather(rank int, vec, into []float64, clock float64, cost CollectiveCost) ([]float64, float64) {
	return m.trs[rank].AllGather(rank, vec, into, clock, cost)
}

// Gather implements Transport.
func (m socksMux) Gather(rank, root int, vec []float64, clock float64, cost CollectiveCost) ([][]float64, float64) {
	return m.trs[rank].Gather(rank, root, vec, clock, cost)
}

// Close implements Transport.
func (m socksMux) Close() error {
	for _, tr := range m.trs {
		tr.Close()
	}
	return nil
}

// TestSocketCommEndToEnd: a Comm over socket transports supports the full
// engine communication pattern — SendBuf/RecvInto halo traffic plus
// in-place reductions — with clocks aligned across processes.
func TestSocketCommEndToEnd(t *testing.T) {
	const p = 2
	dir := skipWithoutUnixSockets(t)
	socks := startSocketMesh(t, dir, p, [3]int{2, 1, 1})
	comms := make([]*Comm, p)
	for r := 0; r < p; r++ {
		c, err := NewCommOver(socks[r], Slingshot11())
		if err != nil {
			t.Fatal(err)
		}
		comms[r] = c
	}
	var wg sync.WaitGroup
	sums := make([]float64, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := comms[rank]
			peer := 1 - rank
			var recv []float64
			for step := 0; step < 50; step++ {
				c.SendBuf(rank, peer, []float64{float64(rank*1000 + step)})
				recv = c.RecvInto(rank, peer, recv)
				if len(recv) != 1 || recv[0] != float64(peer*1000+step) {
					t.Errorf("rank %d step %d: got %v", rank, step, recv)
					return
				}
				vec := []float64{float64(rank + 1)}
				c.AllReduceSumInPlace(rank, vec)
				if vec[0] != 3 {
					t.Errorf("rank %d step %d: allreduce %v", rank, step, vec[0])
					return
				}
			}
			sums[rank] = c.Clock(rank)
		}(r)
	}
	wg.Wait()
	if sums[0] != sums[1] || sums[0] <= 0 {
		t.Errorf("clocks diverged or stalled: %v", sums)
	}
}

// TestSocketHandshakeRejectsMismatch: a worker launched with a different
// grid shape (or size) fails fast at connection time instead of exchanging
// misrouted frames.
func TestSocketHandshakeRejectsMismatch(t *testing.T) {
	dir := skipWithoutUnixSockets(t)
	var wg sync.WaitGroup
	var err0, err1 error
	var tr0, tr1 *SocketTransport
	wg.Add(2)
	go func() { defer wg.Done(); tr0, err0 = NewSocketTransport(dir, 0, 2, [3]int{2, 1, 1}) }()
	go func() { defer wg.Done(); tr1, err1 = NewSocketTransport(dir, 1, 2, [3]int{1, 2, 1}) }()
	wg.Wait()
	if err0 == nil && err1 == nil {
		t.Error("mismatched grids connected")
	}
	for _, tr := range []*SocketTransport{tr0, tr1} {
		if tr != nil {
			tr.Close()
		}
	}
}

// TestSocketTransportSingleRank: a size-1 transport needs no sockets and
// serves collectives locally (the -procs 1 degenerate launch).
func TestSocketTransportSingleRank(t *testing.T) {
	tr, err := NewSocketTransport(t.TempDir(), 0, 1, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	vec := []float64{2, 3}
	cost := func(worst float64, total int) float64 { return worst + float64(total) }
	if clk := tr.AllReduceSum(0, vec, 1, cost); clk != 3 || vec[0] != 2 {
		t.Errorf("single-rank allreduce clk %v vec %v", clk, vec)
	}
	out, clk := tr.AllGather(0, vec, nil, 1, cost)
	if clk != 3 || len(out) != 2 || out[1] != 3 {
		t.Errorf("single-rank allgather %v clk %v", out, clk)
	}
	parts, _ := tr.Gather(0, 0, vec, 1, cost)
	if len(parts) != 1 || parts[0][0] != 2 {
		t.Errorf("single-rank gather %v", parts)
	}
}
