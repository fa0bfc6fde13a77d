// Command mlmd runs a small end-to-end multiscale light-matter dynamics
// simulation and prints a step-by-step trace: the DC-MESH quantum module
// (Maxwell + Ehrenfest + surface hopping) excites electrons under a laser
// pulse, and the XS-NNQMD module propagates the lattice response.
//
// Usage:
//
//	mlmd [-mesh N] [-domains N] [-norb N] [-nqd N] [-mdsteps N] [-amp E0] [-photon eV]
//	     [-cells N] [-ranks N | -grid PxxPyxPz|auto] [-balance]
//	     [-procs N [-transport unix|tcp]] [-hosts h0:p0,h1:p1,... -hostrank i]
//	     [-peer-timeout d] [-checkpoint-every N [-checkpoint path]] [-resume path]
//	     [-max-restarts N]
//	mlmd -fdtd  [-ranks N | -grid PxxPyxPz] [-procs N [-transport unix|tcp]]
//	mlmd -tddft [-ranks N | -grid PxxPyxPz] [-procs N [-transport unix|tcp]]
//
// -fdtd and -tddft run the sharded grid field solvers instead of the
// particle pipeline: a driven 3-D Maxwell FDTD box (-fdtd) or a
// laser-pulse TDDFT orbital propagation (-tddft), decomposed on the same
// halo spine as the lattice stage. Each summary line is computed serially
// on rank 0 from the gathered global fields, so the output is bitwise
// identical on every decomposition and transport. The particle-stage
// flags (-balance, -checkpoint-every, -resume, -max-restarts, -hosts,
// -grid auto) do not apply to the field demos and fail fast.
//
// The particle pipeline is core.Pipeline with an NVE lattice from rest:
// this command adds only its flags, the -procs launcher and the printing.
// The lattice response always runs on the sharded engine through
// shard.RunRecovered, unsharded as one in-process rank. With -procs N the
// launcher forks one worker per rank (mlmd -worker -wrank i), which
// connect over Unix-domain sockets (-transport tcp: loopback TCP with a
// rendezvous-directory port exchange); with -hosts the process joins a
// multi-host TCP mesh as rank -hostrank of the listed endpoints (the same
// list on every host). Rank 0 prints the summary, bitwise identical to the
// in-process -ranks/-grid run of the same decomposition. -grid auto picks
// the feasible Px×Py×Pz with the least per-rank halo surface.
//
// -checkpoint-every N writes a restartable snapshot every N MD steps (to
// -checkpoint, keeping the one before at -checkpoint.prev); -resume path
// continues from one on any decomposition, bitwise as the uninterrupted
// run. The last line before "done." is a CRC64 of the final lattice state
// (the IEEE-754 bits of positions, velocities, forces and the excitation
// map), so equal summaries mean equal final states.
//
// -max-restarts N (with -procs or -hosts, and -checkpoint-every) makes a
// run heal itself: when ranks are lost, the survivors shrink the mesh under
// the next generation tag with an auto-selected grid and resume from the
// newer valid one of -checkpoint and its .prev, in process, at most N
// times. A -hosts survivor keeps its own endpoint; the checkpoint path must
// name the same files on every host. The default, 0, is fail-stop: a lost
// rank ends the run, and the launcher kills the remaining workers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"

	"mlmd/internal/cluster"
	"mlmd/internal/core"
	"mlmd/internal/grid"
	"mlmd/internal/maxwell"
	"mlmd/internal/mlmdio"
	"mlmd/internal/shard"
	"mlmd/internal/units"
)

// latBlock is the XS-NNQMD summary cadence in MD steps; the response
// prints five of them.
const latBlock = 40

// failRankEnv names a worker rank that must exit immediately instead of
// joining the mesh — the fault-injection hook of the launcher-cleanup
// regression test (unset in production).
const failRankEnv = "MLMD_TEST_FAIL_RANK"

// killRankEnv and killStepEnv are the crash-injection hook of the
// auto-recovery tests: the process hosting rank killRankEnv ("N": of the
// current generation; "id:N": of generation 0) SIGKILLs itself (no bye
// frame — exactly a crashed host) at the first checkpoint boundary at or
// past killStepEnv steps (both unset in production).
const (
	killRankEnv = "MLMD_TEST_KILL_RANK"
	killStepEnv = "MLMD_TEST_KILL_STEP"
)

// shardOpts is the resolved sharding configuration of the lattice stage.
type shardOpts struct {
	grid      [3]int // {0,0,0} = unsharded
	balance   bool
	procs     int      // > 0: multi-process run
	transport string   // -procs socket family: "unix" or "tcp"
	hosts     []string // -hosts mode: the rank endpoints
	// socket builds the meshes of a -procs worker or a -hosts process
	// (nil: every rank runs in this process).
	socket *shard.SocketMesh
}

func main() {
	mesh := flag.Int("mesh", 16, "global mesh points per axis (power of two recommended)")
	domains := flag.Int("domains", 2, "DC domains per axis")
	norb := flag.Int("norb", 4, "KS orbitals per domain")
	nqd := flag.Int("nqd", 40, "QD steps per MD step")
	mdsteps := flag.Int("mdsteps", 3, "DC-MESH MD steps (pulse window)")
	amp := flag.Float64("amp", 0.3, "peak laser E field (a.u.)")
	photon := flag.Float64("photon", 3.0, "photon energy (eV)")
	latCells := flag.Int("cells", 12, "XS-NNQMD lattice cells per axis (xy)")
	ranks := flag.Int("ranks", 0, "shard the XS-NNQMD stage across N in-process slab ranks (0 = unsharded)")
	gridStr := flag.String("grid", "", "shard the XS-NNQMD stage across a PxxPyxPz domain grid, e.g. 2x2x1 (the demo lattice is 2 cells thick, so Pz must divide its thin axis with room for the halo); \"auto\" picks the feasible shape with the least per-rank halo surface for the -ranks/-procs/-hosts rank count")
	balance := flag.Bool("balance", false, "with -ranks/-grid/-procs: dynamically rebalance the subdomain boundaries from per-rank step times (trajectory stays bitwise identical; a summary line reports the imbalance)")
	procs := flag.Int("procs", 0, "run the sharded XS-NNQMD stage across N OS processes over the rank transport (alone: an Nx1x1 slab grid; with -grid: the grid's rank count must equal N)")
	transport := flag.String("transport", "unix", "-procs socket family: unix (domain sockets) or tcp (loopback TCP with a rendezvous-directory port exchange); trajectories are bitwise identical either way")
	hosts := flag.String("hosts", "", "join a multi-host TCP mesh: comma-separated host0:port,host1:port,... rank endpoints, identical on every host (requires -hostrank; rank count must match the decomposition)")
	hostRank := flag.Int("hostrank", -1, "this process's rank in the -hosts list")
	peerTimeout := flag.Duration("peer-timeout", 0, "declare a silent peer dead after this long without a frame (heartbeats keep healthy idle links alive; 0 disables the deadline — a killed peer is still detected through the connection close)")
	ckptEvery := flag.Int("checkpoint-every", 0, "write a restartable snapshot of the lattice stage every N MD steps (0 = never)")
	ckptPath := flag.String("checkpoint", "mlmd.ckpt", "checkpoint file path (written atomically by rank 0)")
	resumePath := flag.String("resume", "", "resume the lattice stage from this checkpoint (skips the DC-MESH stage; any -grid/-procs decomposition works)")
	maxRestarts := flag.Int("max-restarts", 0, "with -procs or -hosts and -checkpoint-every: when ranks are lost, the survivors shrink, re-select the grid and resume from the newest valid checkpoint by themselves, at most this many times (0 = fail-stop: a lost rank ends the run)")
	fdtdDemo := flag.Bool("fdtd", false, "run the sharded Maxwell FDTD field demo instead of the particle pipeline (supports -ranks/-grid/-procs/-transport; summary is decomposition-invariant)")
	tddftDemo := flag.Bool("tddft", false, "run the sharded laser-pulse TDDFT field demo instead of the particle pipeline (supports -ranks/-grid/-procs/-transport; summary is decomposition-invariant)")
	worker := flag.Bool("worker", false, "internal: run as one rank worker of a -procs launch")
	wrank := flag.Int("wrank", -1, "internal: worker rank of a -procs launch")
	rdv := flag.String("rdv", "", "internal: rendezvous directory of the -procs socket transport")
	flag.Parse()

	demo := ""
	if *fdtdDemo {
		demo = "fdtd"
	}
	if *tddftDemo {
		if demo != "" {
			fail(fmt.Errorf("-fdtd and -tddft are exclusive: pick one field demo"))
		}
		demo = "tddft"
	}
	if demo != "" {
		if err := checkFieldDemoFlags(demo, *gridStr, *balance, *hosts, *ckptEvery, *resumePath, *maxRestarts); err != nil {
			fail(err)
		}
	}
	opts, err := resolveShard(*ranks, *gridStr, *balance, *procs, *transport, *hosts, *hostRank, *latCells)
	if err != nil {
		fail(err)
	}
	switch {
	case demo == "" && *mdsteps < 1 && *resumePath == "":
		fail(fmt.Errorf("-mdsteps must be >= 1: the lattice responds to the pulse"))
	case *maxRestarts < 0:
		fail(fmt.Errorf("-max-restarts must be >= 0"))
	case *maxRestarts > 0 && opts.procs == 0 && opts.hosts == nil:
		fail(fmt.Errorf("-max-restarts requires -procs or -hosts: in-process ranks cannot be lost alone"))
	case *maxRestarts > 0 && *ckptEvery <= 0:
		fail(fmt.Errorf("-max-restarts requires -checkpoint-every: without snapshots there is nothing to resume from"))
	}
	if opts.procs > 0 && !*worker {
		os.Exit(launch(opts.procs, *maxRestarts == 0))
	}
	sockOpts := cluster.SocketOptions{PeerTimeout: *peerTimeout}
	if *worker {
		if *wrank < 0 || *wrank >= opts.procs || *rdv == "" {
			fail(fmt.Errorf("-worker needs -wrank in [0,%d) and -rdv", opts.procs))
		}
		if os.Getenv(failRankEnv) == strconv.Itoa(*wrank) {
			fail(fmt.Errorf("worker %d: deliberate start-up failure (%s)", *wrank, failRankEnv))
		}
		opts.socket = &shard.SocketMesh{ID: *wrank, Dir: *rdv, TCP: opts.transport == "tcp", Opts: sockOpts}
	} else if opts.hosts != nil {
		opts.socket = &shard.SocketMesh{ID: *hostRank, Hosts: opts.hosts, Opts: sockOpts}
	}
	out := io.Writer(os.Stdout)
	if opts.socket != nil && opts.socket.ID != 0 {
		out = io.Discard
	}
	if demo != "" {
		runFieldDemo(out, demo, opts)
		return
	}
	ropts := shard.RecoverOpts{Every: *ckptEvery, Path: *ckptPath, MaxRestarts: *maxRestarts}
	if *resumePath != "" {
		if ropts.Resume, err = mlmdio.ReadCheckpointFile(*resumePath); err != nil {
			fail(err)
		}
		*mdsteps = 0 // a resume runs the response only
	}
	run(out, *mesh, *domains, *norb, *nqd, *mdsteps, *amp, *photon, *latCells, opts, ropts)
}

// resolveShard validates the sharding flags and resolves them into a grid
// shape. Misuse that older versions silently ignored fails fast here:
// -balance without a decomposition, -ranks combined with -grid, and
// contradictory or incomplete multi-host flags. "-grid auto" resolves to
// the AutoGrid shape for the run's rank count over the -cells lattice box.
func resolveShard(ranks int, gridStr string, balance bool, procs int, transport, hosts string, hostRank, latCells int) (shardOpts, error) {
	opts := shardOpts{balance: balance, procs: procs, transport: transport}
	if ranks < 0 || procs < 0 {
		return opts, fmt.Errorf("-ranks and -procs must be >= 0")
	}
	if transport != "unix" && transport != "tcp" {
		return opts, fmt.Errorf("-transport %q: use unix or tcp", transport)
	}
	if ranks > 0 && gridStr != "" && gridStr != "auto" {
		return opts, fmt.Errorf("-ranks %d and -grid %s both name a decomposition: use one", ranks, gridStr)
	}
	if hosts != "" && procs > 0 {
		return opts, fmt.Errorf("-hosts (multi-host mesh) and -procs (single-host launcher) are exclusive")
	}
	nHosts := 0
	if hosts != "" {
		list, err := cluster.ParseHostList(hosts)
		if err != nil {
			return opts, err
		}
		opts.hosts = list
		nHosts = len(list)
		if hostRank < 0 || hostRank >= nHosts {
			return opts, fmt.Errorf("-hosts lists %d endpoints: -hostrank must be in [0,%d)", nHosts, nHosts)
		}
	} else if hostRank >= 0 {
		return opts, fmt.Errorf("-hostrank requires -hosts")
	}
	switch {
	case gridStr == "auto":
		n := procs
		if n == 0 {
			n = ranks
		}
		if n == 0 {
			n = nHosts
		}
		if n == 0 {
			return opts, fmt.Errorf("-grid auto needs a rank count: add -ranks, -procs or -hosts")
		}
		g, err := core.LatticeAutoGrid(n, latCells, latCells, 2)
		if err != nil {
			return opts, err
		}
		opts.grid = g
	case gridStr != "":
		g, err := shard.ParseGrid(gridStr)
		if err != nil {
			return opts, err
		}
		opts.grid = g
	case ranks > 0:
		opts.grid = [3]int{ranks, 1, 1}
	case procs > 0:
		opts.grid = [3]int{procs, 1, 1}
	case nHosts > 0:
		opts.grid = [3]int{nHosts, 1, 1}
	}
	if procs > 0 {
		if n := opts.grid[0] * opts.grid[1] * opts.grid[2]; n != procs {
			return opts, fmt.Errorf("-procs %d does not match the %d-rank decomposition (%dx%dx%d)",
				procs, n, opts.grid[0], opts.grid[1], opts.grid[2])
		}
	}
	if nHosts > 0 {
		if n := opts.grid[0] * opts.grid[1] * opts.grid[2]; n != nHosts {
			return opts, fmt.Errorf("-hosts lists %d endpoints but the decomposition has %d ranks (%dx%dx%d)",
				nHosts, n, opts.grid[0], opts.grid[1], opts.grid[2])
		}
	}
	if balance && opts.grid == [3]int{} {
		return opts, fmt.Errorf("-balance requires a decomposition: add -ranks, -grid, -procs or -hosts")
	}
	return opts, nil
}

// workerExit pairs a finished -procs worker with its exit error.
type workerExit struct {
	rank int
	err  error
}

// launch is the -procs parent: it forks one worker per rank with the
// original arguments plus the internal worker flags, connects every
// worker's stdout to its own (only the current generation's rank 0
// writes), and reaps the children; the rendezvous directory is removed
// before it returns. With failStop (-max-restarts 0) the first worker
// failure kills the remaining workers at once, so a botched start-up
// cannot orphan processes. Otherwise a worker that dies to a signal is
// left to the survivors, which shrink and resume by themselves
// (shard.RunRecovered); the launch fails if a worker exits with an error
// or none survives.
func launch(procs int, failStop bool) int {
	exe, err := os.Executable()
	if err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp("", "mlmd-rdv")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	cmds := make([]*exec.Cmd, 0, procs)
	done := make(chan workerExit, procs)
	kill := func() {
		for _, c := range cmds {
			c.Process.Kill()
		}
	}
	for r := 0; r < procs; r++ {
		cmd := exec.Command(exe, slices.Concat(os.Args[1:], []string{"-worker", "-wrank", strconv.Itoa(r), "-rdv", dir})...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "mlmd: worker %d: %v\n", r, err)
			kill()
			for range cmds {
				<-done
			}
			return 1
		}
		cmds = append(cmds, cmd)
		//lint:allow poolonly one reaper goroutine per forked worker process; launcher lifecycle, not a fan-out
		go func(rank int, cmd *exec.Cmd) { done <- workerExit{rank, cmd.Wait()} }(r, cmd)
	}
	status, crashed := 0, 0
	for range cmds {
		e := <-done
		if e.err == nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "mlmd: worker %d: %v\n", e.rank, e.err)
		var ee *exec.ExitError
		if !failStop && errors.As(e.err, &ee) && ee.ProcessState.ExitCode() == -1 {
			crashed++
			continue
		}
		if status == 0 && failStop {
			// One lost rank dooms a fail-stop run: take the survivors down
			// now instead of letting them block on a mesh that can never
			// complete.
			kill()
		}
		status = 1
	}
	if crashed == procs {
		status = 1
	}
	return status
}

// run is the full pipeline, shared by the single-process path and every
// -procs worker or -hosts process (which all execute the deterministic
// DC-MESH stage and diverge only in which lattice subdomain they own; out
// is io.Discard on every rank but 0). core.Pipeline runs the lattice
// response through shard.RunRecovered with ropts, completed here by the
// mesh hooks. A resume (ropts.Resume non-nil) skips the DC-MESH stage.
func run(out io.Writer, mesh, domains, norb, nqd, mdsteps int, amp, photon float64, latCells int, opts shardOpts, ropts shard.RecoverOpts) {
	cfg := core.PipelineConfig{
		LatNx: latCells, LatNy: latCells, LatNz: 2,
		DCMESH:        core.DefaultDCMESHConfig(),
		PulseMDSteps:  mdsteps,
		ResponseSteps: 5 * latBlock,
		NSat:          0.02,
		DtMD:          20,
	}
	qc := &cfg.DCMESH
	qc.Global = grid.NewCubic(mesh, 0.8)
	qc.Dx, qc.Dy, qc.Dz = domains, domains, 1
	qc.Norb = norb
	qc.NQD = nqd
	qc.GroundIters = 300
	qc.Pulse = maxwell.NewPulse(amp, units.Hartree(photon), 0.5, 0.5)
	p, err := core.NewPipeline(cfg)
	if err != nil {
		fail(err)
	}
	if ropts.Resume == nil {
		fmt.Fprintf(out, "MLMD: %s split into %dx%dx%d domains, %d orbitals each\n",
			qc.Global, qc.Dx, qc.Dy, qc.Dz, qc.Norb)
		fmt.Fprintf(out, "prepared %d domain ground states\n", len(p.QD.Domains))
		fmt.Fprintf(out, "\n-- DC-MESH: pulse E0=%g a.u., photon %.2f eV --\n", amp, photon)
	} else {
		fmt.Fprintf(out, "-- XS-NNQMD: resuming %dx%dx2 PbTiO3 lattice at step %d (t = %6.1f fs) --\n",
			latCells, latCells, ropts.Resume.Step, units.Femtoseconds(ropts.Resume.Time))
	}
	p.OnPulseStep = func(s int) {
		fmt.Fprintf(out, "MD step %d: t = %6.2f as, n_exc total = %.4f, norm drift = %.2e\n",
			s, units.Attoseconds(p.QD.Time()), p.QD.TotalExcitation(), p.QD.NormDrift())
		if s == mdsteps {
			fmt.Fprintf(out, "\n-- XS-NNQMD: %dx%dx2 PbTiO3 lattice response --\n", latCells, latCells)
		}
	}
	sharded, procs := opts.grid != [3]int{}, opts.socket != nil
	var eng *shard.Engine
	p.OnAttach = func(e *shard.Engine) {
		eng = e
		if g, n := e.Grid(), e.Ranks(); procs { // a process per rank
			fmt.Fprintf(out, "(lattice stage sharded across %d ranks, %dx%dx%d grid, %d processes)\n", n, g[0], g[1], g[2], n)
		} else if sharded {
			fmt.Fprintf(out, "(lattice stage sharded across %d ranks, %dx%dx%d grid)\n", n, g[0], g[1], g[2])
		}
	}
	p.OnResponseStep = func(step int) error {
		if step%latBlock == 0 {
			fmt.Fprintf(out, "t = %6.1f fs: mean Pz = %+.4f, topological charge = %+.2f\n",
				units.Femtoseconds(p.NN.Time()), p.NN.PolarizationField().MeanPz(), p.NN.TopologicalCharge())
		}
		return nil
	}
	p.Shard = shard.Config{Grid: opts.grid, Balance: opts.balance}
	if sm := opts.socket; sm != nil {
		ropts.Mesh = sm.Build
		ropts.OnChunk = testKill(sm)
		// Only the current generation's rank 0 writes the summary.
		ropts.OnResume = func(gen int, path string) {
			out = io.Discard
			if sm.Transport.Rank() == 0 {
				out = os.Stdout
				fmt.Fprintf(os.Stderr, "mlmd: restart %d/%d: resuming %d ranks from %s at generation %d\n",
					gen, ropts.MaxRestarts, sm.Transport.Size(), path, gen)
			}
		}
	}
	p.Recover = ropts
	if _, err := p.Run(); err != nil {
		fail(err)
	}
	if sharded {
		if opts.balance {
			// Timing-dependent, so outside the golden summary (the
			// trajectory is bitwise identical to the unbalanced run
			// regardless).
			rebalances, maxShift := eng.BalanceStats()
			if procs {
				// A process hosts one rank, so per-process imbalance is
				// trivially 1.0 — print only the controller activity (the
				// cross-rank profile lives inside the rebalance AllGather).
				fmt.Fprintf(out, "(balance: %d rebalances, max cut shift %.3f)\n", rebalances, maxShift)
			} else {
				fmt.Fprintf(out, "(balance: %d rebalances, max cut shift %.3f, step-time imbalance %.2f, owned-atom imbalance %.2f)\n",
					rebalances, maxShift, eng.LoadImbalance(), eng.OwnedImbalance())
			}
		}
		// The list events depend on the decomposition (an unsharded run
		// has none), so they stay outside the golden summary too.
		rebuilds, _ := eng.Stats()
		prunes, buffer := eng.ListStats()
		fmt.Fprintf(out, "(pair lists: %d rebuilds, %d prunes, rebuild buffer %.4g)\n", rebuilds, prunes, buffer)
	}
	fmt.Fprintf(out, "state crc64 = %016x\n", p.NN.StateCRC())
	fmt.Fprintln(out, "\ndone.")
}

// testKill is the crash-injection hook of the auto-recovery tests
// (killRankEnv/killStepEnv): the process hosting rank killRankEnv of the
// current generation SIGKILLs itself at the first checkpoint boundary at
// or past step killStepEnv — no bye frame, no deferred teardown, exactly a
// crashed host. The form "id:N" names generation 0's rank N instead, so it
// fires once; a bare N kills every generation's rank N in turn. nil in
// production (envs unset).
func testKill(sm *shard.SocketMesh) func(gen, done int) error {
	id, byID := strings.CutPrefix(os.Getenv(killRankEnv), "id:")
	rank, err1 := strconv.Atoi(id)
	step, err2 := strconv.Atoi(os.Getenv(killStepEnv))
	if err1 != nil || err2 != nil {
		return nil
	}
	return func(_, done int) error {
		who := sm.Transport.Rank()
		if byID {
			who = sm.ID
		}
		if who == rank && done >= step {
			if p, err := os.FindProcess(os.Getpid()); err == nil {
				p.Kill()
			}
		}
		return nil
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mlmd:", err)
	os.Exit(1)
}
