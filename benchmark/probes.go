package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mlmd/internal/cluster"
	"mlmd/internal/dc"
	"mlmd/internal/grid"
	"mlmd/internal/linalg"
	"mlmd/internal/md"
	"mlmd/internal/mlmdio"
	"mlmd/internal/par"
	"mlmd/internal/perf"
	"mlmd/internal/shard/halo"
	"mlmd/internal/tddft"
)

// The standalone layer probes. Each times one layer alone, at the shape the
// workload that stresses it uses, so "a faster layer" can be told from "a
// faster step". Every probe runs on every traced run — they are cheap, and
// the same probes beside every workload show the box's state during it.

// timeMedian runs fn reps times and returns the median seconds per call.
func timeMedian(reps int, fn func()) float64 {
	t := make([]float64, reps)
	for i := range t {
		t0 := time.Now()
		fn()
		t[i] = time.Since(t0).Seconds()
	}
	return median(t)
}

// timeFor calls fn until at least budget has elapsed (and at least once)
// and returns the mean seconds per call.
func timeFor(budget time.Duration, fn func()) float64 {
	n := 0
	t0 := time.Now()
	for {
		fn()
		n++
		if d := time.Since(t0); d >= budget {
			return d.Seconds() / float64(n)
		}
	}
}

// pingElems is the payload of the transport ping-pong where the workload
// has no sends of its own to take a median from: the typical position-halo
// frame of mp.lj.sock (float64 elements).
const pingElems = 1000

type probeSet struct {
	p   params
	tr  *tracer
	out map[string]float64
}

// budget is how long a time-boxed probe measures (the package tests run
// the probes at a token length).
func (ps *probeSet) budget() time.Duration {
	if ps.p.tiny {
		return 2 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// iters scales a fixed-count probe down for the package tests.
func (ps *probeSet) iters(n int) int {
	if ps.p.tiny {
		return n/50 + 1
	}
	return n
}

func (ps *probeSet) run(name string, fn func() error) error {
	sp := ps.tr.begin(name)
	err := fn()
	ps.tr.end(sp)
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

// runProbes runs every standalone probe under one "probe" root span.
// sendElems is the ping-pong payload (0 selects pingElems).
func runProbes(p params, tr *tracer, sendElems int) (map[string]float64, error) {
	ps := &probeSet{p: p, tr: tr, out: map[string]float64{}}
	root := tr.begin("probe")
	defer tr.end(root)
	if sendElems == 0 {
		sendElems = pingElems
	}
	probes := []struct {
		name string
		fn   func() error
	}{
		{"probe.par", ps.parDispatch},
		{"probe.gemm64", ps.gemm64},
		{"probe.cgemm", ps.cgemm},
		{"probe.allegro", ps.allegroEval},
		{"probe.md", ps.mdKernels},
		{"probe.halo", ps.haloRefresh},
		{"probe.cluster", func() error { return ps.pingPong(sendElems) }},
		{"probe.mlmdio", ps.checkpointWrite},
		{"probe.tddft", ps.qdStep},
		{"probe.dc", ps.scf},
	}
	for _, pr := range probes {
		if err := ps.run(pr.name, pr.fn); err != nil {
			return nil, err
		}
	}
	return ps.out, nil
}

func (ps *probeSet) parDispatch() error {
	chunks := 2 * par.Workers()
	ps.out["par.dispatch_ns"] = 1e9 * timeFor(ps.budget()/2, func() {
		par.For(chunks, 1, func(lo, hi, worker int) {})
	})
	return nil
}

// gemm64 times linalg.GEMM64 at the batched-inference shape of nn.allegro:
// a block of atoms times the 96x96 hidden layer, bias preloaded (beta 1).
func (ps *probeSet) gemm64() error {
	hidden := allegroHidden(ps.p.tiny)
	m, n, k := 256, hidden[0], hidden[0]
	a, b, c := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	for i := range a {
		a[i] = float64(i%7) * 0.125
	}
	for i := range b {
		b[i] = float64(i%5) * 0.25
	}
	sec := timeFor(ps.budget(), func() {
		linalg.GEMM64(m, n, k, 1, a, k, b, n, 1, c, n)
	})
	ps.out["linalg.gemm64_gflops"] = float64(linalg.GEMMFlops(m, n, k)) / sec / 1e9
	return nil
}

// dcmeshLocalGrid is the padded local grid of one qd.dcmesh domain.
func dcmeshLocalGrid(p params) (*dc.Decomposition, grid.Grid, error) {
	cfg := dcmeshConfig(p)
	decomp, err := dc.NewDecomposition(cfg.Global, cfg.Dx, cfg.Dy, cfg.Dz, 0.5)
	if err != nil {
		return nil, grid.Grid{}, err
	}
	return decomp, decomp.LocalGrid(decomp.Domain(0)), nil
}

// cgemm times the two linalg.CGEMMParallel calls of the scissor correction
// at qd.dcmesh's shapes: O = Psi0^H Psi, then Psi -= delta Psi0 O.
func (ps *probeSet) cgemm() error {
	_, lg, err := dcmeshLocalGrid(ps.p)
	if err != nil {
		return err
	}
	ngrid, norb := lg.Len(), dcmeshConfig(ps.p).Norb
	psi0, psi := make([]complex128, ngrid*norb), make([]complex128, ngrid*norb)
	for i := range psi0 {
		psi0[i] = complex(float64(i%11)*0.01, float64(i%3)*0.01)
		psi[i] = complex(float64(i%5)*0.01, float64(i%7)*0.01)
	}
	o := make([]complex128, norb*norb)
	sec := timeFor(ps.budget(), func() {
		linalg.CGEMMParallel(linalg.ConjTrans, linalg.NoTrans, norb, norb, ngrid, 1, psi0, norb, psi, norb, 0, o, norb)
		linalg.CGEMMParallel(linalg.NoTrans, linalg.NoTrans, ngrid, norb, norb, -1e-6, psi0, norb, o, norb, 1, psi, norb)
	})
	ps.out["linalg.cgemm_gflops"] = float64(2*linalg.CGEMMFlops(norb, norb, ngrid)) / sec / 1e9
	return nil
}

// allegroEval times Model.ComputeForces alone on nn.allegro's system.
func (ps *probeSet) allegroEval() error {
	sys, model, err := newAllegroSystem(ps.p)
	if err != nil {
		return err
	}
	model.ComputeForces(sys) // neighbor list and scratch sizing
	sec := timeMedian(5, func() { model.ComputeForces(sys) })
	ps.out["allegro.eval_us_per_atom"] = 1e6 * sec / float64(sys.N)
	return nil
}

// mdKernels times the neighbor-list build and the LJ force loop alone on
// md.lj's system.
func (ps *probeSet) mdKernels() error {
	sys, err := newLJSystem(ljCells(ps.p.tiny, 11), 1e-3, ps.p.seed)
	if err != nil {
		return err
	}
	nl, err := md.NewNeighborList(ljCutoff, ljSkin)
	if err != nil {
		return err
	}
	nl.Build(sys)
	ps.out["md.nbr_build_ms"] = 1e3 * timeMedian(5, func() { nl.Build(sys) })
	lj := &md.LennardJones{Epsilon: 0.01, Sigma: 1.0, NL: nl}
	lj.ComputeForces(sys)
	ps.out["md.lj_force_ms"] = 1e3 * timeMedian(15, func() { lj.ComputeForces(sys) })
	return nil
}

// inProcessPair runs fn for rank 0 and rank 1 concurrently and waits.
func inProcessPair(fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		//lint:allow poolonly the two ranks of a probe block on each other; the par pool does not guarantee concurrency
		go func(r int) {
			defer wg.Done()
			fn(r)
		}(r)
	}
	wg.Wait()
}

// haloRefresh times a 3-component GridField ghost refresh between two
// in-process ranks at field.fdtd's face size.
func (ps *probeSet) haloRefresh() error {
	cells := fdtdCells(ps.p.tiny)
	g, err := cluster.NewGrid3D(benchGrid[0], benchGrid[1], benchGrid[2])
	if err != nil {
		return err
	}
	comm, err := cluster.NewComm(2, cluster.Interconnect{})
	if err != nil {
		return err
	}
	var fields [2]*halo.GridField
	var exs [2]*halo.Exchanger
	for r := 0; r < 2; r++ {
		d, err := halo.NewDomain(g, r, [3]int{cells, cells, cells}, 1, false)
		if err != nil {
			return err
		}
		fields[r] = halo.NewGridField(d, 3)
		exs[r] = halo.NewExchanger(comm, g, r)
	}
	iters := ps.iters(200)
	refresh := func(n int) {
		inProcessPair(func(r int) {
			for i := 0; i < n; i++ {
				fields[r].Refresh(exs[r])
			}
		})
	}
	refresh(5) // frame pools
	t0 := time.Now()
	refresh(iters)
	ps.out["halo.refresh_us"] = 1e6 * time.Since(t0).Seconds() / float64(iters)
	return nil
}

// pingPong times one-way message latency between two ranks over the
// in-process channel transport and over real Unix sockets.
func (ps *probeSet) pingPong(elems int) error {
	iters := ps.iters(1500)
	pingpong := func(comms [2]*cluster.Comm) float64 {
		payload := make([]float64, elems)
		run := func(n int) {
			inProcessPair(func(rank int) {
				c, peer := comms[rank], 1-rank
				var recv []float64
				for i := 0; i < n; i++ {
					if rank == 0 {
						c.SendBuf(rank, peer, payload)
						recv = c.RecvInto(rank, peer, recv)
					} else {
						recv = c.RecvInto(rank, peer, recv)
						c.SendBuf(rank, peer, payload)
					}
				}
			})
		}
		run(ps.iters(50))
		t0 := time.Now()
		run(iters)
		return 1e6 * time.Since(t0).Seconds() / float64(2*iters)
	}
	chanComm, err := cluster.NewComm(2, cluster.Interconnect{})
	if err != nil {
		return err
	}
	ps.out["cluster.msg_us_chan"] = pingpong([2]*cluster.Comm{chanComm, chanComm})

	rdv, err := os.MkdirTemp(ps.p.dir, "ping")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rdv)
	var socks [2]*cluster.SocketTransport
	var errs [2]error
	inProcessPair(func(r int) {
		socks[r], errs[r] = cluster.NewSocketTransport(rdv, r, 2, benchGrid)
	})
	defer func() {
		for _, s := range socks {
			if s != nil {
				s.Close()
			}
		}
	}()
	var comms [2]*cluster.Comm
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			return errs[r]
		}
		if comms[r], err = cluster.NewCommOver(socks[r], cluster.Interconnect{}); err != nil {
			return err
		}
	}
	ps.out["cluster.msg_us_sock"] = pingpong(comms)
	return nil
}

// checkpointWrite times mlmdio.WriteCheckpointFile (atomic, fsynced) of
// md.lj.ckpt's system.
func (ps *probeSet) checkpointWrite() error {
	sys, err := newLJSystem(ljCells(ps.p.tiny, 11), 3e-4, ps.p.seed)
	if err != nil {
		return err
	}
	copy(sys.F, sys.V) // a gathered state has non-zero forces; zeros would encode shorter
	path := filepath.Join(ps.p.dir, "probe.ckpt")
	defer os.Remove(path)
	cp := &mlmdio.Checkpoint{Step: 1, Dt: ljDt, Grid: benchGrid, Sys: sys}
	var werr error
	sec := timeMedian(5, func() {
		if err := mlmdio.WriteCheckpointFile(path, cp); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	ps.out["mlmdio.ckpt_write_ms"] = 1e3 * sec
	ps.out["mlmdio.ckpt_bytes"] = float64(st.Size())
	ps.out["mlmdio.ckpt_mb_per_s"] = float64(st.Size()) / 1e6 / sec
	return nil
}

// qdStep times one domain's tddft.Propagator.Step (vprop, kin_prop, vprop,
// scissor) at qd.dcmesh's local grid and orbital count.
func (ps *probeSet) qdStep() error {
	cfg := dcmeshConfig(ps.p)
	_, lg, err := dcmeshLocalGrid(ps.p)
	if err != nil {
		return err
	}
	h := tddft.NewHamiltonian(lg, grid.Order2)
	tddft.HarmonicPotential(lg, 0.04, h.Vloc)
	psi, _ := tddft.GroundState(h, cfg.Norb, 5, ps.p.seed)
	prop, err := tddft.NewPropagator(h, cfg.Impl)
	if err != nil {
		return err
	}
	prop.NL = &tddft.Scissor{Delta: cfg.NonlocalDelta, Mode: cfg.NonlocalMode}
	prop.Psi0 = psi.Clone()
	prop.Step(psi, cfg.DtQD)
	sec := timeFor(ps.budget(), func() { prop.Step(psi, cfg.DtQD) })
	ps.out["tddft.qd_step_us_per_orbital"] = 1e6 * sec / float64(cfg.Norb)
	ps.out["core.t2s_s_per_electron_qdstep"] = perf.T2SElectron(sec, dcmeshElectrons(cfg.Norb, 1))
	return nil
}

// dcmeshElectrons counts electrons the way core.NewDCMESH occupies
// orbitals: the lower half of each domain's orbitals, one electron each.
func dcmeshElectrons(norb, domains int) int { return domains * (norb / 2) }

// scf times one dc.SCF cycle (per-domain ground states, global Fermi
// level, multigrid Hartree) on qd.dcmesh's decomposition.
func (ps *probeSet) scf() error {
	cfg := dcmeshConfig(ps.p)
	decomp, _, err := dcmeshLocalGrid(ps.p)
	if err != nil {
		return err
	}
	vext := make([]float64, cfg.Global.Len())
	tddft.HarmonicPotential(cfg.Global, 0.04, vext)
	scf, err := dc.NewSCF(decomp, vext, cfg.Norb)
	if err != nil {
		return err
	}
	scf.GroundIters = 10 // a short inner solve: the probe times the cycle, not convergence
	scf.Seed = ps.p.seed
	t0 := time.Now()
	_, iters := scf.Run(0, 1)
	ps.out["dc.scf_ms_per_domain"] = 1e3 * time.Since(t0).Seconds() / float64(iters*decomp.NumDomains())
	return nil
}
