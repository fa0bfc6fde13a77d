package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"mlmd/internal/cluster"
	"mlmd/internal/maxwell"
	"mlmd/internal/shard/halo"
	"mlmd/internal/tddft"
	"mlmd/internal/units"
)

// The grid stencil identity matrix (ISSUE 9): the FDTD and TDDFT field
// solvers, sharded on the particle engine's halo spine, must produce
// bitwise identical trajectories on every rank-grid shape — in one
// process, over partial engines on a shared communicator, and across OS
// processes on the Unix-socket and TCP transports. The fixtures below are
// the single source of truth for every variant: workers rebuild them
// deterministically from the fixture name alone.

// gridFixture is one stencil workload's deterministic test setup.
type gridFixture struct {
	name   string
	steps  int
	n      [3]int
	ghost  int
	even   bool
	fields int
	// newWork builds rank r's workload.
	newWork func(rank int, d halo.Domain) (GridWorkload, error)
}

// fdtdFixture is the Maxwell slice of the matrix: a driven 12×10×8 box
// with anisotropic spacings and a point antenna off the lattice center.
func fdtdFixture() gridFixture {
	n := [3]int{12, 10, 8}
	h := [3]float64{1.0, 1.1, 0.9}
	dt := 0.9 * h[0] / math.Sqrt(3) / units.LightSpeed
	return gridFixture{
		name: "grid-fdtd", steps: 320, n: n, ghost: 1, fields: 2,
		newWork: func(rank int, d halo.Domain) (GridWorkload, error) {
			sim, err := maxwell.NewSim3D(d, maxwell.Sim3DConfig{
				H: h, Dt: dt,
				Drive:     maxwell.NewPulse(1e-2, 0.057, 0.02, 0.02),
				Source:    [3]int{5, 4, 3},
				SourceAmp: 1,
			})
			if err != nil {
				return nil, err
			}
			sim.InitRandom(11, 1e-3)
			return sim, nil
		},
	}
}

// tddftFixture is the electron slice: two orbitals on an 8×6×4 mesh under
// a laser-pulse vector potential and a static three-cosine potential.
func tddftFixture() gridFixture {
	n := [3]int{8, 6, 4}
	vloc := func(gx, gy, gz int) float64 {
		return 0.3*math.Cos(2*math.Pi*float64(gx)/float64(n[0])) +
			0.2*math.Sin(2*math.Pi*float64(gy)/float64(n[1])) -
			0.1*math.Cos(2*math.Pi*float64(gz)/float64(n[2]))
	}
	pulse := maxwell.NewPulse(1e-2, 0.057, 0.01, 0.01)
	return gridFixture{
		name: "grid-tddft", steps: 310, n: n, ghost: 1, even: true, fields: 1,
		newWork: func(rank int, d halo.Domain) (GridWorkload, error) {
			sp, err := tddft.NewShardProp(d, tddft.ShardPropConfig{
				Norb: 2, H: [3]float64{0.9, 1.1, 0.7}, Dt: 0.05,
				Ax:   pulse.VectorPotential,
				Vloc: vloc,
			})
			if err != nil {
				return nil, err
			}
			sp.InitRandom(42, 1.0)
			return sp, nil
		},
	}
}

func gridFixtureByName(name string) (gridFixture, error) {
	for _, f := range []gridFixture{fdtdFixture(), tddftFixture()} {
		if f.name == name {
			return f, nil
		}
	}
	return gridFixture{}, fmt.Errorf("unknown grid fixture %q", name)
}

// runGridFixture runs fix on the given rank grid in-process and returns
// the gathered global fields as IEEE-754 bytes plus the final observables.
func runGridFixture(t *testing.T, fix gridFixture, grid [3]int) ([]byte, []float64) {
	t.Helper()
	eng, err := NewGridEngine(GridConfig{
		Grid: grid, N: fix.n, Ghost: fix.ghost, EvenAligned: fix.even,
		NewWork: fix.newWork,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	obs, err := eng.Run(fix.steps)
	if err != nil {
		t.Fatal(err)
	}
	bits, err := gatherFieldBytes(eng, fix)
	if err != nil {
		t.Fatal(err)
	}
	if grid != [3]int{1, 1, 1} && eng.HaloBytes() == 0 {
		t.Fatalf("grid %v: no halo traffic on a partitioned run", grid)
	}
	return bits, append([]float64(nil), obs...)
}

// gatherFieldBytes reassembles every gatherable field of the engine's
// workload on rank 0 and renders the concatenation as little-endian bits.
func gatherFieldBytes(eng *GridEngine, fix gridFixture) ([]byte, error) {
	var out []byte
	word := make([]byte, 8)
	for idx := 0; idx < fix.fields; idx++ {
		w := eng.local[0].work.FieldWidth(idx)
		dst := make([]float64, fix.n[0]*fix.n[1]*fix.n[2]*w)
		if err := eng.GatherField(idx, dst); err != nil {
			return nil, err
		}
		for _, v := range dst {
			binary.LittleEndian.PutUint64(word, math.Float64bits(v))
			out = append(out, word...)
		}
	}
	return out, nil
}

// gridMatrixShapes is the in-process slice of the grid identity matrix.
var gridMatrixShapes = [][3]int{{2, 1, 1}, {1, 2, 1}, {2, 2, 1}, {2, 2, 2}, {4, 1, 1}}

// runGridIdentityMatrix pins fix across the matrix: every shape's gathered
// fields must match the 1×1×1 reference bit for bit, and the AllReduced
// observables must agree to reduction tolerance. The reference has no
// partitioned axis and so no interior/boundary split, which makes each
// comparison also the check that the exchange/compute overlap moves no bit.
func runGridIdentityMatrix(t *testing.T, fix gridFixture) {
	refBits, refObs := runGridFixture(t, fix, [3]int{1, 1, 1})
	for _, shape := range gridMatrixShapes {
		shape := shape
		t.Run(fmt.Sprintf("%dx%dx%d", shape[0], shape[1], shape[2]), func(t *testing.T) {
			bits, obs := runGridFixture(t, fix, shape)
			if string(bits) != string(refBits) {
				t.Fatalf("grid %v: gathered fields are not bitwise identical to the 1-rank run", shape)
			}
			for i := range obs {
				if rel := math.Abs(obs[i]-refObs[i]) / math.Max(math.Abs(refObs[i]), 1e-300); rel > 1e-12 {
					t.Errorf("grid %v: observable %d = %v vs 1-rank %v (rel %g)", shape, i, obs[i], refObs[i], rel)
				}
			}
		})
	}
}

// TestGridStencilIdentityMatrixFDTD: the sharded Maxwell FDTD trajectory
// is bitwise decomposition-invariant across ≥4 rank-grid shapes.
func TestGridStencilIdentityMatrixFDTD(t *testing.T) {
	runGridIdentityMatrix(t, fdtdFixture())
}

// TestGridStencilIdentityMatrixTDDFT: the sharded laser-driven TDDFT
// propagation is bitwise decomposition-invariant on pair-aligned splits.
func TestGridStencilIdentityMatrixTDDFT(t *testing.T) {
	runGridIdentityMatrix(t, tddftFixture())
}

// TestGridPartialEnginesOverSharedComm drives the multi-process grid
// machinery without forking: one single-rank GridEngine per rank
// (GridConfig.Comm + LocalRank) rendezvous over an in-process
// communicator, and the gathered fields on the rank-0 process must match
// the 1-rank reference bitwise. Runs under -short so the race lane covers
// the partial grid paths.
func TestGridPartialEnginesOverSharedComm(t *testing.T) {
	fix := fdtdFixture()
	fix.steps = 60
	grid := [3]int{2, 2, 1}
	const p = 4
	refBits, refObs := runGridFixture(t, fix, [3]int{1, 1, 1})

	comm, err := cluster.NewComm(p, cluster.Interconnect{})
	if err != nil {
		t.Fatal(err)
	}
	engs := make([]*GridEngine, p)
	for r := 0; r < p; r++ {
		engs[r], err = NewGridEngine(GridConfig{
			Grid: grid, N: fix.n, Ghost: fix.ghost, EvenAligned: fix.even,
			NewWork: fix.newWork,
			Comm:    comm, LocalRank: r,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(engs[r].Close)
	}
	obs := make([][]float64, p)
	bits := make([][]byte, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			o, err := engs[rank].Run(fix.steps)
			if err != nil {
				errs[rank] = err
				return
			}
			obs[rank] = append([]float64(nil), o...)
			bits[rank], errs[rank] = gatherFieldBytes(engs[rank], fix)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", r, err)
		}
	}
	if string(bits[0]) != string(refBits) {
		t.Fatal("partial grid engines diverged from the 1-rank run")
	}
	for r := 1; r < p; r++ {
		for i := range obs[r] {
			if obs[r][i] != obs[0][i] {
				t.Errorf("rank %d observable %d = %v differs from rank 0's %v", r, i, obs[r][i], obs[0][i])
			}
		}
	}
	for i := range refObs {
		if rel := math.Abs(obs[0][i]-refObs[i]) / math.Max(math.Abs(refObs[i]), 1e-300); rel > 1e-12 {
			t.Errorf("observable %d = %v vs 1-rank %v", i, obs[0][i], refObs[i])
		}
	}
}

// TestGridEngineSteadyStateAllocs pins the grid path's steady-state
// allocation budget at zero — and keeps it there across the checkpoint
// boundary: a GatherField between runs must not knock the step loop off
// its pooled buffers.
func TestGridEngineSteadyStateAllocs(t *testing.T) {
	fix := fdtdFixture()
	eng, err := NewGridEngine(GridConfig{
		Grid: [3]int{2, 2, 1}, N: fix.n, Ghost: fix.ghost,
		NewWork: fix.newWork,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	run := func() {
		if _, err := eng.Run(5); err != nil {
			panic(err)
		}
	}
	gather := func() {
		dst := make([]float64, fix.n[0]*fix.n[1]*fix.n[2]*3)
		for idx := 0; idx < fix.fields; idx++ {
			if err := eng.GatherField(idx, dst); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	gather()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects per call", avg)
	}
	gather()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("Run allocates %.1f objects per call after a GatherField boundary", avg)
	}
}

// TestNewGridEngineErrors exercises the fail-fast configuration checks.
func TestNewGridEngineErrors(t *testing.T) {
	fix := fdtdFixture()
	ok := GridConfig{Grid: [3]int{2, 1, 1}, N: fix.n, Ghost: 1, NewWork: fix.newWork}
	cases := []struct {
		name string
		mut  func(*GridConfig)
	}{
		{"zero grid", func(c *GridConfig) { c.Grid = [3]int{} }},
		{"no factory", func(c *GridConfig) { c.NewWork = nil }},
		{"thin axis", func(c *GridConfig) { c.Grid = [3]int{1, 1, 16} }},
		{"workload error", func(c *GridConfig) {
			c.NewWork = func(rank int, d halo.Domain) (GridWorkload, error) {
				return nil, fmt.Errorf("boom")
			}
		}},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mut(&cfg)
		if _, err := NewGridEngine(cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// Mismatched communicator size and out-of-range local rank.
	comm, err := cluster.NewComm(2, cluster.Interconnect{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ok
	cfg.Grid = [3]int{4, 1, 1}
	cfg.Comm = comm
	if _, err := NewGridEngine(cfg); err == nil {
		t.Error("communicator size mismatch: no error")
	}
	cfg = ok
	cfg.Comm = comm
	cfg.LocalRank = 7
	if _, err := NewGridEngine(cfg); err == nil {
		t.Error("local rank out of range: no error")
	}
}

// deadWork is a GridWorkload whose Step panics the way a rank's transport
// does when it loses a peer.
type deadWork struct{ lost int }

func (w deadWork) Step(*halo.Exchanger)                   { panic(&cluster.RankFailedError{Rank: w.lost}) }
func (deadWork) PartialLen() int                          { return 1 }
func (deadWork) Partials([]float64)                       {}
func (deadWork) NumFields() int                           { return 1 }
func (deadWork) FieldWidth(int) int                       { return 1 }
func (deadWork) PackField(_ int, buf []float64) []float64 { return buf }

// TestGridEngineLatchesRankFailure: a rank failure inside a step surfaces
// from Run as the typed error naming the lost rank, Err latches it, and
// later collectives short-circuit with it instead of hanging.
func TestGridEngineLatchesRankFailure(t *testing.T) {
	eng, err := NewGridEngine(GridConfig{
		Grid: [3]int{2, 1, 1}, N: [3]int{4, 4, 4}, Ghost: 1,
		NewWork: func(int, halo.Domain) (GridWorkload, error) { return deadWork{lost: 3}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	lost := func(err error) int {
		var rf *cluster.RankFailedError
		if !errors.As(err, &rf) {
			return -1
		}
		return rf.Rank
	}
	if _, err := eng.Run(1); lost(err) != 3 {
		t.Fatalf("Run returned %v, want the rank-3 failure", err)
	}
	if lost(eng.Err()) != 3 {
		t.Fatalf("Err() = %v, want the latched rank-3 failure", eng.Err())
	}
	if _, err := eng.Run(1); lost(err) != 3 {
		t.Errorf("post-failure Run returned %v", err)
	}
	if err := eng.GatherField(0, make([]float64, 64)); lost(err) != 3 {
		t.Errorf("post-failure GatherField returned %v", err)
	}
}

// runGridMPWorker is the re-executed multi-process grid worker: one rank
// of a sharded stencil run over the Unix-socket or TCP transport. Rank 0
// writes the gathered fields plus the AllReduced observables.
func runGridMPWorker() error {
	fix, err := gridFixtureByName(os.Getenv("MLMD_SHARD_WORKER"))
	if err != nil {
		return err
	}
	rank, err1 := strconv.Atoi(os.Getenv("MLMD_WORKER_RANK"))
	size, err2 := strconv.Atoi(os.Getenv("MLMD_WORKER_SIZE"))
	grid, err3 := ParseGrid(os.Getenv("MLMD_WORKER_GRID"))
	for _, e := range []error{err1, err2, err3} {
		if e != nil {
			return e
		}
	}
	rdv := os.Getenv("MLMD_WORKER_RDV")
	out := os.Getenv("MLMD_WORKER_OUT")
	var tr *cluster.SocketTransport
	if os.Getenv("MLMD_WORKER_TRANSPORT") == "tcp" {
		tr, err = cluster.NewTCPRendezvousTransport(rdv, rank, size, grid, cluster.SocketOptions{})
	} else {
		tr, err = cluster.NewSocketTransportOpts(rdv, rank, size, grid, cluster.SocketOptions{})
	}
	if err != nil {
		return err
	}
	defer tr.Close()
	comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
	if err != nil {
		return err
	}
	eng, err := NewGridEngine(GridConfig{
		Grid: grid, N: fix.n, Ghost: fix.ghost, EvenAligned: fix.even,
		NewWork: fix.newWork,
		Comm:    comm, LocalRank: rank,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	obs, err := eng.Run(fix.steps)
	if err != nil {
		return err
	}
	bits, err := gatherFieldBytes(eng, fix)
	if err != nil {
		return err
	}
	if rank != 0 {
		return nil
	}
	word := make([]byte, 8)
	for _, v := range obs {
		binary.LittleEndian.PutUint64(word, math.Float64bits(v))
		bits = append(bits, word...)
	}
	return os.WriteFile(out, bits, 0o644)
}

// runGridMultiProcess launches one worker per rank over the named
// transport and returns rank 0's output bytes.
func runGridMultiProcess(t *testing.T, fix gridFixture, grid [3]int, transport string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rdv, err := os.MkdirTemp("", "mlmdgridrdv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(rdv) })
	out := filepath.Join(rdv, "fields.bits")
	size := grid[0] * grid[1] * grid[2]
	outputs := make([][]byte, size)
	errs := make([]error, size)
	done := make(chan int, size)
	for r := 0; r < size; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"MLMD_SHARD_WORKER="+fix.name,
			"MLMD_WORKER_RANK="+strconv.Itoa(r),
			"MLMD_WORKER_SIZE="+strconv.Itoa(size),
			fmt.Sprintf("MLMD_WORKER_GRID=%dx%dx%d", grid[0], grid[1], grid[2]),
			"MLMD_WORKER_RDV="+rdv,
			"MLMD_WORKER_OUT="+out,
			"MLMD_WORKER_TRANSPORT="+transport,
		)
		go func(r int, cmd *exec.Cmd) {
			outputs[r], errs[r] = cmd.CombinedOutput()
			done <- r
		}(r, cmd)
	}
	for i := 0; i < size; i++ {
		<-done
	}
	for r := 0; r < size; r++ {
		if errs[r] != nil {
			t.Fatalf("grid %v %s worker %d: %v\n%s", grid, transport, r, errs[r], outputs[r])
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("grid %v %s rank 0 wrote no output: %v", grid, transport, err)
	}
	return b
}

// runGridMultiProcessMatrix compares every (grid, transport) cell against
// the in-process 1-rank reference: field bits must match exactly; the
// trailing observables are fixed-order reductions, identical across
// transports of the same grid and tolerance-compared against 1 rank.
func runGridMultiProcessMatrix(t *testing.T, fix gridFixture) {
	mpSkip(t)
	refBits, refObs := runGridFixture(t, fix, [3]int{1, 1, 1})
	for _, grid := range mpGrids {
		var prev []byte
		for _, transport := range []string{"unix", "tcp"} {
			got := runGridMultiProcess(t, fix, grid, transport)
			fieldLen := len(refBits)
			if len(got) != fieldLen+8*len(refObs) {
				t.Fatalf("grid %v %s: output holds %d bytes, want %d", grid, transport, len(got), fieldLen+8*len(refObs))
			}
			if string(got[:fieldLen]) != string(refBits) {
				t.Errorf("grid %v %s: fields are not bitwise identical to the 1-rank run", grid, transport)
			}
			for i := range refObs {
				v := math.Float64frombits(binary.LittleEndian.Uint64(got[fieldLen+8*i:]))
				if rel := math.Abs(v-refObs[i]) / math.Max(math.Abs(refObs[i]), 1e-300); rel > 1e-12 {
					t.Errorf("grid %v %s: observable %d = %v vs 1-rank %v", grid, transport, i, v, refObs[i])
				}
			}
			if prev != nil && string(got) != string(prev) {
				t.Errorf("grid %v: unix and tcp transports disagree", grid)
			}
			prev = got
		}
	}
}

// TestGridMultiProcessIdentityFDTD: sharded FDTD over OS-process ranks on
// the Unix-socket and TCP transports, bitwise identical to 1 rank.
func TestGridMultiProcessIdentityFDTD(t *testing.T) {
	runGridMultiProcessMatrix(t, fdtdFixture())
}

// TestGridMultiProcessIdentityTDDFT: the laser-pulse TDDFT propagation
// over both wire transports, bitwise identical to 1 rank.
func TestGridMultiProcessIdentityTDDFT(t *testing.T) {
	runGridMultiProcessMatrix(t, tddftFixture())
}
