package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mlmd/internal/allegro"
	"mlmd/internal/cluster"
	"mlmd/internal/md"
	"mlmd/internal/mlmdio"
	"mlmd/internal/shard"
)

// Shared LJ fixture parameters (the geometry of the repo's own shard
// tests and BENCH_PR2–6 sweeps: fcc spacing 1.7, mass 50, eps 0.01).
const (
	ljCutoff = 2.0
	ljSkin   = 0.3
	ljDt     = 2.0
	// ckptEvery is the checkpoint cadence of md.lj.ckpt in steps: short
	// enough that the fsynced write is over a tenth of the wall time on a
	// fast local disk, so moving it off the step loop shows.
	ckptEvery = 8
)

var benchGrid = [3]int{2, 1, 1}

var mdLJ = &workload{
	name: "md.lj",
	why:  "5324-atom LJ at kT 1e-3 on 2 in-process ranks: neighbor rebuilds and migration dominate, GEMM work is zero",
	w:    1, setupReps: 11, verifyDispatches: 200, traceDispatchesPerSecond: 60,
	size: func(tiny bool) string { return fmt.Sprintf("%d atoms", 4*cube(ljCells(tiny, 11))) },
	open: func(p params, tr *tracer, serial bool) (instance, error) {
		return openLJ(p, tr, serial, ljCells(p.tiny, 11), 1e-3, 1, false)
	},
}

var mdLJCkpt = &workload{
	name: "md.lj.ckpt",
	why:  "same system at kT 3e-4 (no rebuilds) with an atomic fsynced checkpoint every 8 steps: writes beside steps",
	w:    2, setupReps: 11, verifyDispatches: 100, traceDispatchesPerSecond: 60,
	size: func(tiny bool) string { return fmt.Sprintf("%d atoms", 4*cube(ljCells(tiny, 11))) },
	open: func(p params, tr *tracer, serial bool) (instance, error) {
		return openLJ(p, tr, serial, ljCells(p.tiny, 11), 3e-4, 2, !serial)
	},
}

var mpLJSock = &workload{
	name: "mp.lj.sock",
	why:  "1372-atom LJ on two partial engines over real Unix sockets: few atoms per rank, so transport cost shows",
	w:    10, setupReps: 11, verifyDispatches: 20, traceDispatchesPerSecond: 30,
	size: func(tiny bool) string { return fmt.Sprintf("%d atoms", 4*cube(ljCells(tiny, 7))) },
	open: func(p params, tr *tracer, serial bool) (instance, error) {
		if serial {
			return openLJ(p, tr, true, ljCells(p.tiny, 7), 3e-4, 10, false)
		}
		return openSock(p, tr, ljCells(p.tiny, 7), 3e-4, 10)
	},
}

var nnAllegro = &workload{
	name: "nn.allegro",
	why:  "1024-atom two-species crystal under a [96,96] Allegro model, batched FP64 inference: GEMM64 does the work",
	w:    1, setupReps: 11, verifyDispatches: 100, traceDispatchesPerSecond: 12,
	size: func(tiny bool) string {
		c := allegroCells(tiny)
		return fmt.Sprintf("%d atoms", 4*c[0]*c[1]*c[2])
	},
	open: openAllegro,
}

func cube(c int) int { return c * c * c }

func ljCells(tiny bool, full int) int {
	if tiny {
		return 5
	}
	return full
}

func newLJSystem(cells int, kT float64, seed int64) (*md.System, error) {
	sys, err := md.NewFCCSystem(cells, 1.7, 50)
	if err != nil {
		return nil, err
	}
	sys.InitVelocities(kT, seed)
	return sys, nil
}

func ljConfig(serial bool) shard.Config {
	cfg := shard.Config{
		Grid: benchGrid, Cutoff: ljCutoff, Skin: ljSkin,
		Net:   cluster.Slingshot11(),
		NewFF: shard.LJFactory(0.01, 1.0),
	}
	if serial {
		cfg.Grid = [3]int{1, 1, 1}
	}
	return cfg
}

// particleInstance is an in-process shard.Engine run. With ckpt set, every
// (ckptEvery/w)-th dispatch goes through RunCheckpointed and writes the
// gathered state through mlmdio, timed around the write callback.
type particleInstance struct {
	tr  *tracer
	eng *shard.Engine
	sys *md.System
	dt  float64
	w   int

	dispatches           int64
	rebuilds0, migrated0 int64
	comm0                float64

	ckpt        bool
	ckptPath    string
	ckptSeconds float64
	ckptWrites  int64
	ckptBytes   int64
}

func openEngine(tr *tracer, cfg shard.Config, sys *md.System, dt float64, w int) (*particleInstance, error) {
	sp := tr.begin("new_engine")
	eng, err := shard.NewEngine(cfg, sys)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("prime")
	res := eng.Run(0, dt, 0, 0) // scatter is done; this forces the first rebuild
	tr.end(sp)
	if res.Err != nil {
		eng.Close()
		return nil, res.Err
	}
	in := &particleInstance{tr: tr, eng: eng, sys: sys, dt: dt, w: w}
	in.rebuilds0, in.migrated0 = eng.Stats()
	in.comm0 = eng.ModeledCommSeconds()
	return in, nil
}

func openLJ(p params, tr *tracer, serial bool, cells int, kT float64, w int, ckpt bool) (instance, error) {
	sp := tr.begin("build_system")
	sys, err := newLJSystem(cells, kT, p.seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in, err := openEngine(tr, ljConfig(serial), sys, ljDt, w)
	if err != nil {
		return nil, err
	}
	if ckpt {
		in.ckpt = true
		in.ckptPath = filepath.Join(p.dir, "bench.ckpt")
	}
	return in, nil
}

// allegroCells is the fcc cell count per axis: 8x8x4 cells = 1024 atoms,
// long along x so the 2x1x1 cut leaves each rank well over a halo wide.
func allegroCells(tiny bool) [3]int {
	if tiny {
		return [3]int{4, 3, 3}
	}
	return [3]int{8, 8, 4}
}

const (
	allegroLattice = 2.6 // ~12 neighbors inside the 2.5 cutoff
	allegroDt      = 0.1
)

func allegroHidden(tiny bool) []int {
	if tiny {
		return []int{8, 8}
	}
	return []int{96, 96}
}

// newAllegroSystem builds the two-species fcc crystal with seed-driven
// displacements of a few percent of the lattice constant: no two atoms
// overlap, so the untrained model's forces stay bounded and the neighbor
// list lives for many steps (the PR 7 random gas rebuilt every step).
func newAllegroSystem(p params) (*md.System, *allegro.Model, error) {
	c := allegroCells(p.tiny)
	a := allegroLattice
	n := 4 * c[0] * c[1] * c[2]
	sys, err := md.NewSystem(n, float64(c[0])*a, float64(c[1])*a, float64(c[2])*a)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	basis := [4][3]float64{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}
	i := 0
	for cx := 0; cx < c[0]; cx++ {
		for cy := 0; cy < c[1]; cy++ {
			for cz := 0; cz < c[2]; cz++ {
				for _, b := range basis {
					sys.X[3*i] = (float64(cx)+b[0])*a + 0.04*a*(rng.Float64()-0.5)
					sys.X[3*i+1] = (float64(cy)+b[1])*a + 0.04*a*(rng.Float64()-0.5)
					sys.X[3*i+2] = (float64(cz)+b[2])*a + 0.04*a*(rng.Float64()-0.5)
					sys.Mass[i] = 30
					sys.Type[i] = i % 2
					i++
				}
			}
		}
	}
	sys.Wrap()
	sys.InitVelocities(1e-4, p.seed+1)
	model, err := allegro.NewModel(
		allegro.DescriptorSpec{Cutoff: 2.5, NRadial: 5, NSpecies: 2},
		allegroHidden(p.tiny), 13)
	if err != nil {
		return nil, nil, err
	}
	model.Mode = allegro.EvalBatched
	model.BlockSize = allegro.DefaultBatchBlock
	return sys, model, nil
}

func openAllegro(p params, tr *tracer, serial bool) (instance, error) {
	sp := tr.begin("build_system")
	sys, model, err := newAllegroSystem(p)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cfg := shard.Config{
		Grid: benchGrid, Cutoff: model.Spec.Cutoff, Skin: 0.3,
		Net:   cluster.Slingshot11(),
		NewFF: shard.AllegroFactory(model),
	}
	if serial {
		cfg.Grid = [3]int{1, 1, 1}
	}
	return openEngine(tr, cfg, sys, allegroDt, 1)
}

func (in *particleInstance) dispatch() error {
	in.dispatches++
	var res shard.RunResult
	if in.ckpt && in.dispatches%int64(ckptEvery/in.w) == 0 {
		sp := in.tr.begin("run_checkpointed")
		var err error
		res, err = in.eng.RunCheckpointed(in.w, in.dt, 0, 0, in.w, in.sys, in.writeCheckpoint)
		in.tr.end(sp)
		if err != nil {
			return err
		}
	} else {
		res = in.eng.Run(in.w, in.dt, 0, 0)
	}
	if res.Err != nil {
		return res.Err
	}
	return finite("PE/KE", res.PE, res.KE)
}

// writeCheckpoint is the RunCheckpointed callback: in.sys already holds
// the gathered state.
func (in *particleInstance) writeCheckpoint(int) error {
	sp := in.tr.begin("ckpt_write")
	t0 := time.Now()
	cp := &mlmdio.Checkpoint{
		Step: in.dispatches * int64(in.w), Dt: in.dt,
		Grid: in.eng.Grid(), Sys: in.sys,
	}
	for a := 0; a < 3; a++ {
		cp.Cuts[a] = in.eng.CutPlanes(a)
	}
	err := mlmdio.WriteCheckpointFile(in.ckptPath, cp)
	in.ckptSeconds += time.Since(t0).Seconds()
	in.tr.end(sp)
	if err != nil {
		return err
	}
	in.ckptWrites++
	if in.ckptBytes == 0 {
		st, err := os.Stat(in.ckptPath)
		if err != nil {
			return err
		}
		in.ckptBytes = st.Size()
	}
	return nil
}

func (in *particleInstance) events() (rebuilds, checkpoints int64) {
	rebuilds, _ = in.eng.Stats()
	return rebuilds, in.ckptWrites
}

func (in *particleInstance) digest() (uint64, error) {
	sp := in.tr.begin("gather_all")
	in.eng.GatherAll(in.sys)
	in.tr.end(sp)
	if err := in.eng.Err(); err != nil {
		return 0, err
	}
	return digestSystem(in.sys), nil
}

func digestSystem(sys *md.System) uint64 {
	return digestFloats(digestFloats(digestFloats(0, sys.X), sys.V), sys.F)
}

func (in *particleInstance) check() error {
	if err := in.eng.Validate(); err != nil {
		return err
	}
	if !in.ckpt {
		return nil
	}
	// Write the current state through the same path, read it back with
	// mlmdio and require the bits of the gathered state.
	want, err := in.digest()
	if err != nil {
		return err
	}
	if err := in.writeCheckpoint(0); err != nil {
		return err
	}
	cp, err := mlmdio.ReadCheckpointFile(in.ckptPath)
	if err != nil {
		return err
	}
	if got := digestSystem(cp.Sys); got != want {
		return fmt.Errorf("reloaded checkpoint digest %016x, gathered state %016x", got, want)
	}
	if cp.Step != in.dispatches*int64(in.w) {
		return fmt.Errorf("reloaded checkpoint at step %d, engine at %d", cp.Step, in.dispatches*int64(in.w))
	}
	return nil
}

func (in *particleInstance) layer(rs runStats) map[string]float64 {
	steps := float64(in.dispatches * int64(in.w))
	rebuilds, migrated := in.eng.Stats()
	rebuilds -= in.rebuilds0
	migrated -= in.migrated0
	m := map[string]float64{
		"shard.rebuild_share":             float64(rebuilds) / steps,
		"shard.imbalance":                 in.eng.LoadImbalance(),
		"cluster.modeled_comm_s_per_step": (in.eng.ModeledCommSeconds() - in.comm0) / steps,
	}
	if rebuilds > 0 {
		m["shard.migrated_per_rebuild"] = float64(migrated) / float64(rebuilds)
	}
	m["shard.rank_compute_ms"] = 1e3 * mean(in.eng.RankLoads())
	if in.ckptWrites > 0 {
		perWrite := in.ckptSeconds / float64(in.ckptWrites)
		m["mlmdio.ckpt_write_ms"] = 1e3 * perWrite
		m["mlmdio.ckpt_bytes"] = float64(in.ckptBytes)
		m["mlmdio.ckpt_mb_per_s"] = float64(in.ckptBytes) / 1e6 / perWrite
		m["mlmdio.ckpt_wall_share"] = in.ckptSeconds / rs.wall
	}
	return m
}

func (in *particleInstance) close() { in.eng.Close() }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// sockInstance is mp.lj.sock: two partial engines in this process, each
// hosting one rank over its own Unix-socket transport, so every halo frame
// and collective crosses the kernel through the wire codec. Each engine is
// driven by its own goroutine (an Engine's driver methods are single-
// goroutine, and the two must dispatch concurrently: they are collectives).
type sockInstance struct {
	tr    *tracer
	w     int
	dt    float64
	engs  [2]*shard.Engine
	socks [2]*cluster.SocketTransport
	count [2]*countingTransport
	sys   [2]*md.System
	rdv   string

	// cmd carries the step count of a Run dispatch, or sockGather.
	cmd  [2]chan int
	done [2]chan error
	wg   sync.WaitGroup

	dispatches           int64
	rebuilds0, migrated0 int64
	comm0                float64
	msgs0, bytes0, busy0 int64
	t0                   time.Time
}

// sockGather on a driver's command channel asks for GatherAll instead of
// a Run of that many steps.
const sockGather = -1

func openSock(p params, tr *tracer, cells int, kT float64, w int) (instance, error) {
	sp := tr.begin("build_system")
	sys, err := newLJSystem(cells, kT, p.seed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in := &sockInstance{tr: tr, w: w, dt: ljDt}
	in.rdv, err = os.MkdirTemp(p.dir, "rdv")
	if err != nil {
		return nil, err
	}
	sp = tr.begin("new_engine")
	errs := [2]error{}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		//lint:allow poolonly transport rendezvous needs both ranks dialing concurrently
		go func(r int) {
			defer wg.Done()
			in.socks[r], errs[r] = cluster.NewSocketTransport(in.rdv, r, 2, benchGrid)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			in.release()
			return nil, err
		}
	}
	for r := 0; r < 2; r++ {
		// 1<<16 send sizes are plenty for the median of a traced run.
		in.count[r] = &countingTransport{Transport: in.socks[r], sizes: make([]int, 0, 1<<16)}
		comm, err := cluster.NewCommOver(in.count[r], cluster.Slingshot11())
		if err != nil {
			in.release()
			return nil, err
		}
		cfg := ljConfig(false)
		cfg.Comm = comm
		cfg.LocalRank = r
		in.sys[r] = sys.Clone()
		if in.engs[r], err = shard.NewEngine(cfg, in.sys[r]); err != nil {
			in.release()
			return nil, err
		}
	}
	tr.end(sp)
	for r := 0; r < 2; r++ {
		in.cmd[r] = make(chan int)
		in.done[r] = make(chan error)
		in.wg.Add(1)
		//lint:allow poolonly rank-lifecycle driver: one goroutine per partial engine for the run's lifetime
		go in.drive(r)
	}
	sp = tr.begin("prime")
	err = in.both(0)
	tr.end(sp)
	if err != nil {
		in.close()
		return nil, err
	}
	in.rebuilds0, in.migrated0 = in.stats()
	in.comm0 = in.engs[0].ModeledCommSeconds()
	in.msgs0, in.bytes0, in.busy0 = in.traffic()
	in.t0 = time.Now()
	return in, nil
}

// drive is rank r's driver loop; it ends when its command channel closes.
func (in *sockInstance) drive(r int) {
	defer in.wg.Done()
	for op := range in.cmd[r] {
		var err error
		if op == sockGather {
			in.engs[r].GatherAll(in.sys[r])
			err = in.engs[r].Err()
		} else {
			res := in.engs[r].Run(op, in.dt, 0, 0)
			if err = res.Err; err == nil {
				err = finite("PE/KE", res.PE, res.KE)
			}
		}
		in.done[r] <- err
	}
}

func (in *sockInstance) both(op int) error {
	in.cmd[0] <- op
	in.cmd[1] <- op
	err0, err1 := <-in.done[0], <-in.done[1]
	if err0 != nil {
		return err0
	}
	return err1
}

func (in *sockInstance) dispatch() error {
	in.dispatches++
	return in.both(in.w)
}

func (in *sockInstance) stats() (rebuilds, migrated int64) {
	for _, e := range in.engs {
		rb, mg := e.Stats()
		if rb > rebuilds {
			rebuilds = rb
		}
		migrated += mg
	}
	return
}

func (in *sockInstance) traffic() (msgs, bytes, busy int64) {
	for _, c := range in.count {
		msgs += c.msgs.Load()
		bytes += c.bytes.Load()
		busy += c.busy.Load()
	}
	return
}

func (in *sockInstance) events() (rebuilds, checkpoints int64) {
	rebuilds, _ = in.stats()
	return rebuilds, 0
}

func (in *sockInstance) digest() (uint64, error) {
	sp := in.tr.begin("gather_all")
	err := in.both(sockGather)
	in.tr.end(sp)
	if err != nil {
		return 0, err
	}
	return digestSystem(in.sys[0]), nil // rank 0 holds the reassembled state
}

func (in *sockInstance) check() error {
	for _, e := range in.engs {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func (in *sockInstance) layer(runStats) map[string]float64 {
	steps := float64(in.dispatches * int64(in.w))
	rebuilds, migrated := in.stats()
	rebuilds -= in.rebuilds0
	migrated -= in.migrated0
	msgs, bytes, busy := in.traffic()
	loads := []float64{in.engs[0].RankLoads()[0], in.engs[1].RankLoads()[1]}
	m := map[string]float64{
		"shard.rebuild_share":             float64(rebuilds) / steps,
		"shard.rank_compute_ms":           1e3 * mean(loads),
		"shard.imbalance":                 math.Max(loads[0], loads[1]) / mean(loads),
		"cluster.modeled_comm_s_per_step": (in.engs[0].ModeledCommSeconds() - in.comm0) / steps,
		"cluster.msgs_per_step":           float64(msgs-in.msgs0) / steps,
		"cluster.bytes_per_step":          float64(bytes-in.bytes0) / steps,
		"cluster.median_send_elems":       float64(in.count[0].medianSendElems()),
		// Mean over the two ranks of the time inside transport calls, as a
		// share of the wall time since priming.
		"cluster.transport_share": float64(busy-in.busy0) / 2 / float64(time.Since(in.t0)),
	}
	if rebuilds > 0 {
		m["shard.migrated_per_rebuild"] = float64(migrated) / float64(rebuilds)
	}
	return m
}

// release closes whatever of the engines, sockets and rendezvous directory
// exists: the tail of close, and the error path of a half-built instance.
func (in *sockInstance) release() {
	for _, e := range in.engs {
		if e != nil {
			e.Close()
		}
	}
	for _, s := range in.socks {
		if s != nil {
			s.Close()
		}
	}
	os.RemoveAll(in.rdv)
}

func (in *sockInstance) close() {
	for r := range in.cmd {
		close(in.cmd[r])
	}
	in.wg.Wait()
	in.release()
}
