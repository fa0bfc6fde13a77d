package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mlmd/internal/allegro"
	"mlmd/internal/cluster"
	"mlmd/internal/md"
)

// The multi-process identity matrix (ISSUE 5): the same trajectories the
// in-process grid matrix pins, re-run with every rank in its own OS
// process over the Unix-socket transport. The parent test re-executes its
// own binary as workers (TestMain dispatches on MLMD_SHARD_WORKER), each
// worker builds the fixture deterministically, runs the engine over a
// cluster.SocketTransport with dynamic boundary balancing enabled, and
// rank 0 writes the GatherAll'd endpoint as raw IEEE-754 bits; the parent
// compares those bits against the in-process multi-rank run and the 1-rank
// reference.

// TestMain dispatches worker re-executions before the test framework runs.
func TestMain(m *testing.M) {
	if os.Getenv("MLMD_SHARD_WORKER") != "" {
		if err := runMPWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mpFixture is one force field's deterministic multi-process test setup,
// shared bit-for-bit between the parent and its worker processes.
type mpFixture struct {
	name  string
	steps int
	dt    float64
	cost  CostModel
	build func() (*md.System, Config, error)
}

// mpFixtures returns the LJ and Allegro fixtures of the identity matrix
// (the same systems as the in-process matrix: a warm fcc LJ crystal and
// the random two-species Allegro gas).
func mpFixtures() []mpFixture {
	return []mpFixture{
		{
			name: "lj", steps: 320, dt: 2.0, cost: CostOwnedAtoms,
			build: func() (*md.System, Config, error) {
				sys, err := md.NewFCCSystem(7, 1.7, 50)
				if err != nil {
					return nil, Config{}, err
				}
				sys.InitVelocities(1e-3, 1)
				return sys, Config{
					Cutoff: testCutoff, Skin: testSkin,
					NewFF: LJFactory(testEps, testSigma),
				}, nil
			},
		},
		{
			name: "allegro", steps: 310, dt: 1.0, cost: CostStepTime,
			build: func() (*md.System, Config, error) {
				const n, l = 160, 12.0
				sys, err := md.NewSystem(n, l, l, l)
				if err != nil {
					return nil, Config{}, err
				}
				rng := rand.New(rand.NewSource(9))
				for i := 0; i < n; i++ {
					sys.X[3*i] = rng.Float64() * l
					sys.X[3*i+1] = rng.Float64() * l
					sys.X[3*i+2] = rng.Float64() * l
					sys.Mass[i] = 30
					sys.Type[i] = i % 2
				}
				model, err := allegro.NewModel(allegro.DescriptorSpec{Cutoff: 2.5, NRadial: 4, NSpecies: 2}, []int{16, 16}, 3)
				if err != nil {
					return nil, Config{}, err
				}
				sys.InitVelocities(3e-3, 4)
				return sys, Config{
					Cutoff: model.Spec.Cutoff, Skin: 0.3,
					NewFF: AllegroFactory(model),
				}, nil
			},
		},
	}
}

// fixtureByName resolves a worker's MLMD_SHARD_WORKER value.
func fixtureByName(name string) (mpFixture, error) {
	for _, f := range mpFixtures() {
		if f.name == name {
			return f, nil
		}
	}
	return mpFixture{}, fmt.Errorf("unknown fixture %q", name)
}

// runMPWorker is the re-executed worker: one rank of a multi-process
// engine, configured entirely through the environment.
func runMPWorker() error {
	if strings.HasPrefix(os.Getenv("MLMD_SHARD_WORKER"), "grid-") {
		return runGridMPWorker()
	}
	fix, err := fixtureByName(os.Getenv("MLMD_SHARD_WORKER"))
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
	steps := fix.steps
	if s := os.Getenv("MLMD_WORKER_STEPS"); s != "" {
		if steps, err = strconv.Atoi(s); err != nil {
			return err
		}
	}
	var opts cluster.SocketOptions
	if s := os.Getenv("MLMD_WORKER_PTIMEOUT"); s != "" {
		if opts.PeerTimeout, err = time.ParseDuration(s); err != nil {
			return err
		}
	}
	if os.Getenv("MLMD_WORKER_RECOVER") != "" {
		return runMPRecoverWorker(fix, rank, size, grid, rdv, out, steps, opts)
	}
	sys, cfg, err := fix.build()
	if err != nil {
		return err
	}
	tr, err := cluster.NewSocketTransportOpts(rdv, rank, size, grid, opts)
	if err != nil {
		return err
	}
	defer tr.Close()
	comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
	if err != nil {
		return err
	}
	cfg.Grid = grid
	cfg.Comm = comm
	cfg.LocalRank = rank
	cfg.Balance = true
	cfg.BalanceCost = fix.cost
	eng, err := NewEngine(cfg, sys)
	if err != nil {
		return err
	}
	defer eng.Close()
	res := eng.Run(steps, fix.dt, 0, 0)
	if res.Err != nil {
		// A peer died mid-run (the kill test): surface the typed failure on
		// stderr so the parent can assert which rank every survivor blamed.
		// Our own teardown is safe — Close sends a bye frame, so the other
		// survivors see a graceful departure, not a second failure.
		return res.Err
	}
	eng.GatherAll(sys)
	if err := eng.Validate(); err != nil {
		return err
	}
	rebuilds, migrated := eng.Stats()
	if rank != 0 {
		return nil
	}
	if rebuilds < 5 {
		return fmt.Errorf("only %d rebuilds in %d steps — event path not exercised", rebuilds, steps)
	}
	if size > 1 && migrated == 0 {
		return fmt.Errorf("no atoms migrated into rank 0 in %d steps", steps)
	}
	rebalances, maxShift := eng.BalanceStats()
	if rebalances == 0 {
		return fmt.Errorf("balancer never rebalanced in %d steps", steps)
	}
	if maxShift > eng.currentHalo() {
		return fmt.Errorf("cut shift %g exceeds the halo %g", maxShift, eng.currentHalo())
	}
	return writeEndpoint(out, sys, res)
}

// runMPRecoverWorker is the self-healing variant of the worker (ISSUE 8):
// the run goes through RunRecovered with rotating checkpoints in the
// rendezvous dir, so when a peer is SIGKILLed the survivors shrink and
// resume on their own. A worker with MLMD_WORKER_KILLSTEP set SIGKILLs
// itself right after that chunk boundary (no bye frame, exactly a crashed
// host). The process hosting the final rank 0 writes the endpoint; every
// survivor prints its recovery stats for the parent to assert.
func runMPRecoverWorker(fix mpFixture, rank, size int, grid [3]int, rdv, out string, steps int, sopts cluster.SocketOptions) error {
	sys, cfg, err := fix.build()
	if err != nil {
		return err
	}
	cfg.Grid = grid
	cfg.Balance = true
	cfg.BalanceCost = fix.cost
	every, err := strconv.Atoi(os.Getenv("MLMD_WORKER_EVERY"))
	if err != nil {
		return err
	}
	maxRestarts, err := strconv.Atoi(os.Getenv("MLMD_WORKER_MAXRESTARTS"))
	if err != nil {
		return err
	}
	killStep := 0
	if s := os.Getenv("MLMD_WORKER_KILLSTEP"); s != "" {
		if killStep, err = strconv.Atoi(s); err != nil {
			return err
		}
	}
	ckpt := filepath.Join(rdv, "run.ckpt")
	lastLocal := 0
	ropts := RecoverOpts{
		Steps: steps, Dt: fix.dt, Every: every, MaxRestarts: maxRestarts,
		Candidates: []string{ckpt, ckpt + ".prev"},
		Write:      rotatingWriter(ckpt),
		Mesh: func(gen int, survivors []int, g [3]int) (*cluster.Comm, int, func(), error) {
			local := -1
			for i, s := range survivors {
				if s == rank {
					local = i
				}
			}
			if local < 0 {
				return nil, 0, nil, fmt.Errorf("worker %d not among survivors %v", rank, survivors)
			}
			o := sopts
			o.Generation = gen
			tr, err := cluster.NewSocketTransportOpts(rdv, local, len(survivors), g, o)
			if err != nil {
				return nil, 0, nil, err
			}
			comm, err := cluster.NewCommOver(tr, cluster.Interconnect{})
			if err != nil {
				tr.Close()
				return nil, 0, nil, err
			}
			lastLocal = local
			return comm, local, func() { tr.Close() }, nil
		},
	}
	if killStep > 0 {
		ropts.OnChunk = func(gen, done int) error {
			if gen == 0 && done >= killStep {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
			return nil
		}
	}
	res, stats, err := RunRecovered(cfg, sys, ropts)
	if err != nil {
		return err
	}
	if killStep > 0 {
		return fmt.Errorf("victim survived its own SIGKILL at step %d", killStep)
	}
	fmt.Printf("recover: rank %d restarts=%d resumed=%d detect_to_resume=%v\n",
		rank, stats.Restarts, stats.ResumedStep, stats.DetectToResume)
	if lastLocal != 0 {
		return nil
	}
	return writeEndpoint(out, sys, res)
}

// writeEndpoint serializes the trajectory endpoint (positions, velocities,
// PE, KE) as little-endian IEEE-754 bits — the comparison is bitwise, so
// the file format must be too.
func writeEndpoint(path string, sys *md.System, res RunResult) error {
	buf := make([]byte, 0, 8*(len(sys.X)+len(sys.V)+2))
	word := make([]byte, 8)
	put := func(v float64) {
		binary.LittleEndian.PutUint64(word, math.Float64bits(v))
		buf = append(buf, word...)
	}
	for _, v := range sys.X {
		put(v)
	}
	for _, v := range sys.V {
		put(v)
	}
	put(res.PE)
	put(res.KE)
	return os.WriteFile(path, buf, 0o644)
}

// endpointBytes renders an in-process run's endpoint in the worker file
// format for byte-level comparison.
func endpointBytes(t *testing.T, sys *md.System, res RunResult) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.bits")
	if err := writeEndpoint(path, sys, res); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mpSkip skips where multi-process runs are unavailable or too slow: -short
// (the race-detector lane re-executes race-built workers) and platforms
// without Unix-domain sockets.
func mpSkip(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process matrix skipped under -short (socket transport is race-covered in internal/cluster)")
	}
	dir, err := os.MkdirTemp("", "mlmdmp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	ln, err := net.Listen("unix", filepath.Join(dir, "probe.sock"))
	if err != nil {
		t.Skipf("no Unix-domain socket support: %v", err)
	}
	ln.Close()
}

// runMultiProcess launches one worker process per rank and returns rank
// 0's endpoint bytes.
func runMultiProcess(t *testing.T, fix mpFixture, grid [3]int) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rdv, err := os.MkdirTemp("", "mlmdrdv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(rdv) })
	out := filepath.Join(rdv, "endpoint.bits")
	size := grid[0] * grid[1] * grid[2]
	cmds := make([]*exec.Cmd, size)
	outputs := make([][]byte, size)
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"MLMD_SHARD_WORKER="+fix.name,
			"MLMD_WORKER_RANK="+strconv.Itoa(r),
			"MLMD_WORKER_SIZE="+strconv.Itoa(size),
			fmt.Sprintf("MLMD_WORKER_GRID=%dx%dx%d", grid[0], grid[1], grid[2]),
			"MLMD_WORKER_RDV="+rdv,
			"MLMD_WORKER_OUT="+out,
		)
		cmds[r] = cmd
	}
	done := make(chan int, size)
	for r, cmd := range cmds {
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
			t.Fatalf("grid %v worker %d: %v\n%s", grid, r, errs[r], outputs[r])
		}
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("grid %v rank 0 wrote no endpoint: %v", grid, err)
	}
	return b
}

// mpGrids is the multi-process slice of the identity matrix: a 2-process
// slab and a 4-process 2-D grid.
var mpGrids = [][3]int{{2, 1, 1}, {2, 2, 1}}

// runMultiProcessMatrix drives one fixture across the multi-process grids,
// comparing every endpoint bitwise against the in-process 1-rank reference
// and the in-process run of the identical grid (with the same balancing
// configuration the workers use).
func runMultiProcessMatrix(t *testing.T, fix mpFixture) {
	mpSkip(t)
	base, cfg, err := fix.build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Balance = true
	cfg.BalanceCost = fix.cost
	ref, refRes, _ := runGridTrajectory(t, base, cfg, [3]int{1, 1, 1}, fix.steps, fix.dt, nil)
	refBits := endpointBytes(t, ref, refRes)
	// The X/V prefix is the bitwise trajectory contract; the trailing
	// PE/KE words are rank-count-dependent reduction sums (the in-process
	// matrix compares them with tolerance for the same reason), so they
	// only take part in the same-grid cross-transport comparison.
	xvLen := len(refBits) - 16
	for _, grid := range mpGrids {
		inproc, inRes, _ := runGridTrajectory(t, base, cfg, grid, fix.steps, fix.dt, nil)
		inBits := endpointBytes(t, inproc, inRes)
		if string(inBits[:xvLen]) != string(refBits[:xvLen]) {
			t.Fatalf("grid %v: in-process balanced run differs from 1-rank reference", grid)
		}
		mpBits := runMultiProcess(t, fix, grid)
		if len(mpBits) != len(refBits) {
			t.Fatalf("grid %v: endpoint size %d, want %d", grid, len(mpBits), len(refBits))
		}
		if string(mpBits[:xvLen]) != string(refBits[:xvLen]) {
			t.Errorf("grid %v: multi-process trajectory is not bitwise identical to the 1-rank run", grid)
		}
		if string(mpBits[:xvLen]) != string(inBits[:xvLen]) {
			t.Errorf("grid %v: multi-process trajectory differs from the in-process run of the same grid", grid)
		}
		// PE/KE group per-rank partial sums by owned sets, and with
		// CostStepTime the cut motion (hence the grouping) is
		// timing-dependent — compare as observables, not bits.
		mpPE, mpKE := decodeEnergies(mpBits)
		if rel := math.Abs(mpPE-inRes.PE) / math.Max(math.Abs(inRes.PE), 1); rel > 1e-9 {
			t.Errorf("grid %v: multi-process PE %v vs in-process %v (rel %g)", grid, mpPE, inRes.PE, rel)
		}
		if rel := math.Abs(mpKE-inRes.KE) / math.Max(math.Abs(inRes.KE), 1); rel > 1e-9 {
			t.Errorf("grid %v: multi-process KE %v vs in-process %v (rel %g)", grid, mpKE, inRes.KE, rel)
		}
	}
}

// decodeEnergies reads the trailing PE/KE words of an endpoint file.
func decodeEnergies(bits []byte) (pe, ke float64) {
	n := len(bits)
	pe = math.Float64frombits(binary.LittleEndian.Uint64(bits[n-16:]))
	ke = math.Float64frombits(binary.LittleEndian.Uint64(bits[n-8:]))
	return
}

// TestPartialEnginesOverSharedComm drives the multi-process engine
// machinery without forking: four single-rank engines (Config.Comm +
// LocalRank), each with its own replica of the system, rendezvous over one
// in-process communicator — exactly a -procs run with the socket hops
// removed. Runs under -short too, so the race lane covers the
// partial-engine paths (partial scatter, per-engine rebalance apply,
// GatherAll) that the forked tests skip there.
func TestPartialEnginesOverSharedComm(t *testing.T) {
	const steps, dt = 120, 2.0
	grid := [3]int{2, 2, 1}
	const p = 4
	base := fccLJSystem(t, 6, 1e-3, 2)

	cfg := Config{
		Cutoff: testCutoff, Skin: testSkin,
		NewFF:   LJFactory(testEps, testSigma),
		Balance: true, BalanceCost: CostOwnedAtoms,
	}
	ref, refRes, _ := runGridTrajectory(t, base, cfg, [3]int{1, 1, 1}, steps, dt, nil)

	comm, err := cluster.NewComm(p, cluster.Interconnect{})
	if err != nil {
		t.Fatal(err)
	}
	engs := make([]*Engine, p)
	syss := make([]*md.System, p)
	for r := 0; r < p; r++ {
		syss[r] = base.Clone()
		c := cfg
		c.Grid = grid
		c.Comm = comm
		c.LocalRank = r
		engs[r], err = NewEngine(c, syss[r])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(engs[r].Close)
	}
	results := make([]RunResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank] = engs[rank].Run(steps, dt, 0, 0)
			engs[rank].GatherAll(syss[rank])
			errs[rank] = engs[rank].Validate()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", r, err)
		}
	}
	for i := range ref.X {
		if syss[0].X[i] != ref.X[i] || syss[0].V[i] != ref.V[i] {
			t.Fatalf("partial engines diverged from the 1-rank run at coordinate %d", i)
		}
	}
	for r := 1; r < p; r++ {
		if results[r].KE != results[0].KE || results[r].PE != results[0].PE {
			t.Errorf("rank %d observables (%v, %v) differ from rank 0's (%v, %v)",
				r, results[r].PE, results[r].KE, results[0].PE, results[0].KE)
		}
	}
	if math.Abs(results[0].KE-refRes.KE) > 1e-12*math.Abs(refRes.KE) {
		t.Errorf("KE %v vs 1-rank %v", results[0].KE, refRes.KE)
	}
}

// TestAutoRecoveryAfterKill is the ISSUE 8 acceptance test: four OS-process
// workers run the LJ fixture through the self-healing driver; one SIGKILLs
// itself right after the step-80 checkpoint. The three survivors must
// shrink to a fresh generation-1 mesh, resume from that snapshot with no
// operator action, and finish a trajectory bitwise identical to the
// uninterrupted in-process 1-rank run — recovery may move atoms between
// ranks, never the physics.
func TestAutoRecoveryAfterKill(t *testing.T) {
	mpSkip(t)
	fix, err := fixtureByName("lj")
	if err != nil {
		t.Fatal(err)
	}
	const steps, every, killStep = 160, 40, 80
	grid := [3]int{2, 2, 1}
	const size, victim = 4, 3

	base, cfg, err := fix.build()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Balance = true
	cfg.BalanceCost = fix.cost
	ref, refRes, _ := runGridTrajectory(t, base, cfg, [3]int{1, 1, 1}, steps, fix.dt, nil)
	refBits := endpointBytes(t, ref, refRes)
	xvLen := len(refBits) - 16

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rdv, err := os.MkdirTemp("", "mlmdrecover")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(rdv) })
	out := filepath.Join(rdv, "endpoint.bits")

	cmds := make([]*exec.Cmd, size)
	outputs := make([][]byte, size)
	werrs := make([]error, size)
	for r := 0; r < size; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"MLMD_SHARD_WORKER="+fix.name,
			"MLMD_WORKER_RANK="+strconv.Itoa(r),
			"MLMD_WORKER_SIZE="+strconv.Itoa(size),
			fmt.Sprintf("MLMD_WORKER_GRID=%dx%dx%d", grid[0], grid[1], grid[2]),
			"MLMD_WORKER_RDV="+rdv,
			"MLMD_WORKER_OUT="+out,
			"MLMD_WORKER_STEPS="+strconv.Itoa(steps),
			"MLMD_WORKER_RECOVER=1",
			"MLMD_WORKER_EVERY="+strconv.Itoa(every),
			"MLMD_WORKER_MAXRESTARTS=2",
		)
		if r == victim {
			cmd.Env = append(cmd.Env, "MLMD_WORKER_KILLSTEP="+strconv.Itoa(killStep))
		}
		cmds[r] = cmd
	}
	done := make(chan int, size)
	for r, cmd := range cmds {
		go func(r int, cmd *exec.Cmd) {
			outputs[r], werrs[r] = cmd.CombinedOutput()
			done <- r
		}(r, cmd)
	}
	for i := 0; i < size; i++ {
		<-done
	}
	if werrs[victim] == nil {
		t.Errorf("victim exited cleanly, want death by SIGKILL\n%s", outputs[victim])
	}
	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		if werrs[r] != nil {
			t.Fatalf("survivor %d: %v\n%s", r, werrs[r], outputs[r])
		}
		if got := string(outputs[r]); !strings.Contains(got, "restarts=1") || !strings.Contains(got, fmt.Sprintf("resumed=%d", killStep)) {
			t.Errorf("survivor %d stats %q, want one restart resumed from step %d", r, got, killStep)
		}
	}

	mpBits, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("recovered rank 0 wrote no endpoint: %v", err)
	}
	if len(mpBits) != len(refBits) {
		t.Fatalf("endpoint size %d, want %d", len(mpBits), len(refBits))
	}
	if string(mpBits[:xvLen]) != string(refBits[:xvLen]) {
		t.Error("recovered trajectory is not bitwise identical to the uninterrupted 1-rank run")
	}
	mpPE, mpKE := decodeEnergies(mpBits)
	if rel := math.Abs(mpPE-refRes.PE) / math.Max(math.Abs(refRes.PE), 1); rel > 1e-9 {
		t.Errorf("recovered PE %v vs reference %v (rel %g)", mpPE, refRes.PE, rel)
	}
	if rel := math.Abs(mpKE-refRes.KE) / math.Max(math.Abs(refRes.KE), 1); rel > 1e-9 {
		t.Errorf("recovered KE %v vs reference %v (rel %g)", mpKE, refRes.KE, rel)
	}
}

// TestMultiProcessIdentityMatrixLJ: the PR 5 acceptance test — LJ
// trajectories over OS-process ranks on the socket transport, with live
// migrations and dynamic boundary balancing, are bitwise identical to the
// in-process and 1-rank runs.
func TestMultiProcessIdentityMatrixLJ(t *testing.T) {
	fix, err := fixtureByName("lj")
	if err != nil {
		t.Fatal(err)
	}
	runMultiProcessMatrix(t, fix)
}

// TestMultiProcessIdentityMatrixAllegro: the neural force field through
// the full two-phase payload-halo path over the socket transport, balanced
// by measured step times (the timing-dependent controller moves the cuts
// differently in every run — the trajectory must not care).
func TestMultiProcessIdentityMatrixAllegro(t *testing.T) {
	fix, err := fixtureByName("allegro")
	if err != nil {
		t.Fatal(err)
	}
	runMultiProcessMatrix(t, fix)
}
