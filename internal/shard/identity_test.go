package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mlmd/internal/allegro"
	"mlmd/internal/cluster"
	"mlmd/internal/ferro"
	"mlmd/internal/maxwell"
	"mlmd/internal/md"
	"mlmd/internal/mlmdio"
	"mlmd/internal/shard/halo"
	"mlmd/internal/tddft"
	"mlmd/internal/units"
)

// The identity oracle. Divide-conquer-recombine holds only if recombining
// the pieces gives back the whole: every force field and grid solver must
// end bit for bit on its 1x1x1 run whatever the grid shape, neighbor-list
// skin, boundary balancing, transport, resume step or Allegro block size.
// identityTable lists every such trajectory as one row; runIdentity runs a
// suite's rows against one memoized 1x1x1 reference per (fixture, steps)
// at tolerance zero, then the event-path checks that prove each row took
// the path it names. On a mismatch the row and its reference are re-run
// one step at a time and the first differing step and element is
// reported. Rows on a socket transport run one re-executed test binary per
// rank (TestMain dispatches on MLMD_SHARD_WORKER, the row's id).

// identityFixture is one workload of the oracle, rebuilt bit for bit from
// its name alone in the test process and in every worker.
type identityFixture struct {
	// particle builds a fresh system and its engine config at the
	// fixture's own skin, Grid unset; nil for a grid solver.
	particle func() (particleSetup, error)
	dt       float64
	cost     CostModel // the balancing signal
	// tol bounds each observable's distance from the reference, relative
	// to it (PE then KE for a particle fixture; 1e-12 where unset). The
	// reductions are summed in rank-local order, so they agree to
	// rounding, not bitwise.
	tol []float64
	// grid is a grid solver's engine config, Grid unset.
	grid GridConfig
}

// particleSetup is what a particle fixture builds.
type particleSetup struct {
	sys   *md.System
	cfg   Config
	w     []float64      // per-atom excitation weights, or nil
	model *allegro.Model // the Allegro model, or nil
}

// identityFixtures is the oracle's fixture registry.
var identityFixtures = map[string]identityFixture{
	// A warm fcc LJ crystal, the same geometry the benchmarks use.
	"lj": ljFixture(func() (*md.System, error) { return md.NewFCCSystem(7, 1.7, 50) }, 1),
	// A Gaussian density hot spot off-center, so every partitioned axis
	// sees a strong load gradient under a uniform grid.
	"lj-hotspot": ljFixture(func() (*md.System, error) {
		return md.NewGaussianHotSpotSystem(7, 1.7, 50, 0.15, 0.18, [3]float64{0.3, 0.3, 0.3}, 11)
	}, 1),
	"lj6": ljFixture(func() (*md.System, error) { return md.NewFCCSystem(6, 1.7, 50) }, 2),
	// A warm 8×8×4 PbTiO3 lattice under the blended effective Hamiltonian
	// with a nonuniform excitation weight map; the tight skin (0.15 a)
	// makes its boundary-plane vibrations trigger real rebuilds and
	// migrations within the run.
	"effham": {dt: 20, cost: CostStepTime, particle: func() (particleSetup, error) {
		sys, lat, gs, xs, w, err := ferroFixture(8, 8, 4)
		if err != nil {
			return particleSetup{}, err
		}
		sys.InitVelocities(1e-3, 9)
		newFF, err := BlendEffHamFactory(lat, gs, xs)
		a := ferro.LatticeConstant
		return particleSetup{sys: sys, w: w, cfg: Config{Cutoff: 1.3 * a, Skin: 0.15 * a, NewFF: newFF}}, err
	}},
	// The random two-species gas under an untrained Allegro model.
	"allegro": {dt: 1, cost: CostStepTime, particle: func() (particleSetup, error) {
		sys, model, err := allegroGas(160, 12)
		if err != nil {
			return particleSetup{}, err
		}
		sys.InitVelocities(3e-3, 4)
		cfg := Config{Cutoff: model.Spec.Cutoff, Skin: 0.3, NewFF: AllegroFactory(model)}
		return particleSetup{sys: sys, model: model, cfg: cfg}, nil
	}},
	// A driven 12×10×8 Yee box with anisotropic spacings and a point
	// antenna off the lattice center.
	"fdtd": {grid: GridConfig{N: [3]int{12, 10, 8}, Ghost: 1, NewWork: func(rank int, d halo.Domain) (GridWorkload, error) {
		h := [3]float64{1.0, 1.1, 0.9}
		sim, err := maxwell.NewSim3D(d, maxwell.Sim3DConfig{
			H: h, Dt: 0.9 * h[0] / math.Sqrt(3) / units.LightSpeed,
			Drive:  maxwell.NewPulse(1e-2, 0.057, 0.02, 0.02),
			Source: [3]int{5, 4, 3}, SourceAmp: 1,
		})
		if err != nil {
			return nil, err
		}
		sim.InitRandom(11, 1e-3)
		return sim, nil
	}}},
	// Two orbitals on an 8×6×4 mesh under a laser-pulse vector potential
	// and a static three-cosine potential, on pair-aligned splits.
	"tddft": {grid: GridConfig{N: [3]int{8, 6, 4}, Ghost: 1, EvenAligned: true, NewWork: func(rank int, d halo.Domain) (GridWorkload, error) {
		n := d.N
		sp, err := tddft.NewShardProp(d, tddft.ShardPropConfig{
			Norb: 2, H: [3]float64{0.9, 1.1, 0.7}, Dt: 0.05,
			Ax: maxwell.NewPulse(1e-2, 0.057, 0.01, 0.01).VectorPotential,
			Vloc: func(gx, gy, gz int) float64 {
				return 0.3*math.Cos(2*math.Pi*float64(gx)/float64(n[0])) +
					0.2*math.Sin(2*math.Pi*float64(gy)/float64(n[1])) -
					0.1*math.Cos(2*math.Pi*float64(gz)/float64(n[2]))
			},
		})
		if err != nil {
			return nil, err
		}
		sp.InitRandom(42, 1.0)
		return sp, nil
	}}},
}

// ljFixture is an LJ system from build, warmed to kT 1e-3.
func ljFixture(build func() (*md.System, error), seed int64) identityFixture {
	return identityFixture{dt: 2, cost: CostOwnedAtoms, tol: []float64{1e-9, 1e-12}, particle: func() (particleSetup, error) {
		sys, err := build()
		if err != nil {
			return particleSetup{}, err
		}
		sys.InitVelocities(1e-3, seed)
		return particleSetup{sys: sys, cfg: Config{Cutoff: testCutoff, Skin: testSkin, NewFF: LJFactory(testEps, testSigma)}}, nil
	}}
}

// transport is how a row's ranks talk.
type transport int

const (
	inProcess      transport = iota // one engine hosting every rank
	partialEngines                  // one single-rank engine per rank over one in-process comm
	unixSockets                     // one worker process per rank
	tcpSockets
)

// balanceMode is the boundary-balancing axis.
type balanceMode int

const (
	static balanceMode = iota
	balanced
	balancedEveryRebuild
)

// ownSkin keeps the fixture's own neighbor-list skin.
const ownSkin = -1.0

// expect names the event-path checks of a row (the first block) and of a
// group of rows (the second). Checks marked "full length" are skipped
// under -short, whose 60-step trajectories are too short for them.
type expect uint

const (
	wantEvents      expect = 1 << iota // ≥5 rebuilds and a migration (full length)
	wantEveryStep                      // a rebuild at every step and the prime
	wantFewRebuilds                    // the prime and at most one more rebuild
	wantSingleList                     // no prune and the buffer at the skin: a two-phase field
	wantRebalance                      // a rebalance, no cut shift above the halo
	wantCutsMoved                      // ≥2 rebalances, a cut that moved, a migration
	wantHaloTraffic                    // halo bytes on a partitioned grid

	wantSplit     // some row ran the interior/boundary split
	wantDual      // some row grew its buffer past the skin and some row pruned (full length)
	wantMigration // some row migrated an atom (full length)
)

// identityCase is one row of the oracle.
type identityCase struct {
	id        string // suite[/group]/row: the subtest path and the worker's key
	fix       string // identityFixtures key
	grid      [3]int
	steps     int
	skin      float64 // ownSkin or a list skin
	balance   balanceMode
	transport transport
	resume    *resumePlan
	block     int  // Allegro inference block size; 0 is one block per species
	long      bool // skipped under -short
	want      expect
	// poison fills, before each step, every ghost cell of a grid solver
	// with NaN, and every skin-shell ghost payload of a two-phase force
	// field (ghost_test.go).
	poison bool
	// perturb moves one float of every received frame; the row must
	// leave its reference's bits instead of keeping them.
	perturb perturbAt
}

// resumePlan checkpoints a row's first at steps on grid from, every every
// steps, and resumes the rest from the file on the row's grid.
type resumePlan struct {
	from      [3]int
	at, every int
}

func shapeName(g [3]int) string { return fmt.Sprintf("%dx%dx%d", g[0], g[1], g[2]) }

// leaf is the row's own subtest name.
func (c identityCase) leaf() string {
	name := [...]string{"", "partial-", "unix-", "tcp-"}[c.transport]
	if c.poison {
		name += "poison-"
	}
	if c.perturb != perturbNone {
		name += "perturb-" + c.perturb.String() + "-"
	}
	if r := c.resume; r != nil {
		name += fmt.Sprintf("%s@%d-", shapeName(r.from), r.at)
	}
	return name + shapeName(c.grid)
}

// identityTable returns every row of the oracle, in suite order, and the
// group checks keyed by group path (a suite, or a skin= group under it).
func identityTable(short bool) ([]identityCase, map[string]expect) {
	m, ma := matrixSteps(short), 310 // the in-process particle matrices' lengths
	if short {
		ma = 60
	}
	var rows []identityCase
	groups := map[string]expect{}
	add := func(group string, want expect, base identityCase, grids ...[3]int) {
		groups[group] |= want
		for _, g := range grids {
			c := base
			c.grid = g
			c.id = group + "/" + c.leaf()
			rows = append(rows, c)
		}
	}
	// The skin rows: skin 0 rebuilds every step, the widest at most once
	// after the prime. The bits cannot depend on the skin: every row of a
	// list is in ascending gid order, every force and energy an
	// ascending-gid chain over a row, and a candidate beyond the cutoff
	// adds +0, so any complete list gives the same sums.
	skinRows := func(suite string, skin, wide float64, base identityCase, grids ...[3]int) {
		base.skin = skin
		var want expect
		switch skin {
		case 0:
			base.want, want = wantEveryStep, wantSplit|wantMigration
		case wide:
			base.want = wantFewRebuilds
		}
		add(fmt.Sprintf("%s/skin=%.3g", suite, skin), want, base, grids...)
	}
	shapes := [][3]int{{2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {2, 2, 1}, {2, 1, 2}, {2, 2, 2}, {4, 2, 1}}
	moving := [][3]int{{2, 1, 1}, {2, 2, 1}, {2, 2, 2}, {4, 2, 1}}
	stencil := [][3]int{{2, 1, 1}, {1, 2, 1}, {2, 2, 1}, {2, 2, 2}, {4, 1, 1}}
	wire := [][3]int{{2, 1, 1}, {2, 2, 1}}
	one := [3]int{1, 1, 1}
	const d = "TestGridDecompositionIdentityMatrix"

	add(d+"LJ", wantSplit|wantDual, identityCase{fix: "lj", steps: m, skin: ownSkin, want: wantEvents}, shapes...)
	for _, s := range []float64{0, 0.1, testSkin, 1} {
		skinRows(d+"LJ", s, 1, identityCase{fix: "lj", steps: m}, one, [3]int{2, 2, 1}, [3]int{4, 2, 1})
	}
	add(d+"EffHam", wantSplit|wantMigration, identityCase{fix: "effham", steps: m, skin: ownSkin}, shapes...)
	a := ferro.LatticeConstant
	for _, s := range []float64{0, 0.05 * a, 0.15 * a, 0.4 * a} {
		skinRows(d+"EffHam", s, 0.4*a, identityCase{fix: "effham", steps: m}, one, [3]int{2, 1, 1}, [3]int{2, 1, 2})
	}
	add(d+"Allegro", wantSplit|wantMigration, identityCase{fix: "allegro", steps: ma, skin: ownSkin, want: wantSingleList}, shapes...)
	// NaN in the payload of every ghost farther than the cutoff from every
	// owned atom: phase two never reads the halo's skin shell.
	add(d+"Allegro", 0, identityCase{fix: "allegro", steps: ma, skin: ownSkin, poison: true}, [3]int{2, 1, 1}, [3]int{2, 2, 1}, [3]int{2, 2, 2})
	// The untrained model drives the gas fast enough that no buffer holds
	// a list for the whole run, so its skin rows cover the first 30
	// steps; a list at cutoff+9 spans the whole 12-wide box, so the wide
	// row runs on one rank only.
	al30 := identityCase{fix: "allegro", steps: 30}
	for _, s := range []float64{0, 0.1, 0.3} {
		skinRows(d+"Allegro", s, 9, al30, one, [3]int{2, 1, 1})
	}
	skinRows(d+"Allegro", 9, 9, al30, one)
	// Block size 64 splits the 1x1x1 grid's blocked-GEMM inference into
	// several chunks per species; a rank of the multi-rank grids holds
	// fewer than 64 atoms of a species, so their block=16 rows are the
	// ones that take the multi-chunk path there.
	batched := identityCase{fix: "allegro", steps: ma, skin: ownSkin, block: 64}
	add(d+"AllegroBatched", wantMigration, batched, one, [3]int{2, 2, 1}, [3]int{2, 2, 2})
	batched.block = 16
	add(d+"AllegroBatched/block=16", wantMigration, batched, [3]int{2, 2, 1}, [3]int{2, 2, 2})
	// Cut planes that move at every rebuild: on the hot spot by the
	// deterministic owned-atom signal, elsewhere by measured step times,
	// which differ run to run and must still never reach the physics.
	add(d+"BalancedLJ", 0, identityCase{fix: "lj-hotspot", steps: m, skin: ownSkin, balance: balancedEveryRebuild, want: wantCutsMoved}, moving...)
	add(d+"BalancedEffHam", 0, identityCase{fix: "effham", steps: m, skin: ownSkin, balance: balancedEveryRebuild, want: wantRebalance}, moving...)
	add(d+"BalancedAllegro", 0, identityCase{fix: "allegro", steps: m, skin: ownSkin, balance: balancedEveryRebuild, want: wantRebalance}, moving...)

	// Every rank in its own process on the Unix-socket transport, beside
	// the in-process run of the same grid, balanced at the default cadence.
	for _, mp := range []struct {
		fix, name string
		steps     int
	}{{"lj", "LJ", 320}, {"allegro", "Allegro", 310}} {
		for _, g := range wire {
			for _, tr := range []transport{inProcess, unixSockets} {
				add("TestMultiProcessIdentityMatrix"+mp.name, 0, identityCase{fix: mp.fix, steps: mp.steps, skin: ownSkin, balance: balanced, transport: tr, long: true, want: wantEvents | wantRebalance}, g)
			}
		}
	}
	// Checkpointed through mlmdio on one grid, resumed from the file on
	// another: the gathered system is the complete integration state.
	resume := func(suite, fix string, from, to [3]int, at, every int, long bool) {
		add(suite, 0, identityCase{fix: fix, steps: at + 200, skin: ownSkin, balance: balanced, resume: &resumePlan{from, at, every}, long: long}, to)
	}
	resume("TestResumeIdentityLJ", "lj", [3]int{2, 2, 1}, [3]int{4, 1, 1}, 120, 60, false)
	resume("TestResumeIdentityAllegro", "allegro", [3]int{2, 1, 1}, [3]int{2, 2, 1}, 60, 30, true)
	resume("TestResumeIdentitySingleRankToMany", "lj", one, [3]int{2, 2, 1}, 80, 40, false)
	// A multi-process run with the socket hops removed: these run under
	// -short, so the race lane covers the partial-engine paths.
	add("TestPartialEnginesOverSharedComm", 0, identityCase{fix: "lj6", steps: 120, skin: ownSkin, balance: balanced, transport: partialEngines}, [3]int{2, 2, 1})
	add("TestGridPartialEnginesOverSharedComm", 0, identityCase{fix: "fdtd", steps: 60, transport: partialEngines, want: wantHaloTraffic}, [3]int{2, 2, 1})

	// The poison rows: NaN in every ghost before each step, on every grid
	// shape and transport, must leave every bit as it is.
	for _, gs := range []struct {
		fix, name string
		steps     int
	}{{"fdtd", "FDTD", 320}, {"tddft", "TDDFT", 310}} {
		add("TestGridStencilIdentityMatrix"+gs.name, 0, identityCase{fix: gs.fix, steps: gs.steps, want: wantHaloTraffic}, stencil...)
		add("TestGridStencilIdentityMatrix"+gs.name, 0, identityCase{fix: gs.fix, steps: gs.steps, poison: true}, append([][3]int{one}, stencil...)...)
		add("TestGridStencilIdentityMatrix"+gs.name, 0, identityCase{fix: gs.fix, steps: gs.steps, transport: partialEngines, poison: true, want: wantHaloTraffic}, stencil...)
		for _, g := range wire {
			for _, tr := range []transport{unixSockets, tcpSockets} {
				add("TestGridMultiProcessIdentity"+gs.name, 0, identityCase{fix: gs.fix, steps: gs.steps, transport: tr, want: wantHaloTraffic}, g)
				add("TestGridMultiProcessIdentity"+gs.name, 0, identityCase{fix: gs.fix, steps: gs.steps, transport: tr, poison: true, want: wantHaloTraffic}, g)
			}
		}
	}
	// The perturbed rows: 1e-13 on the first, a middle or the last float
	// of every received ghost frame must reach the trajectory, on every
	// partitioned grid and transport that can carry it.
	for _, at := range []perturbAt{perturbFirst, perturbMiddle, perturbLast} {
		add("TestGridFramesAreReadFDTD", 0, identityCase{fix: "fdtd", steps: 60, transport: partialEngines, perturb: at}, stencil...)
		for _, g := range wire {
			for _, tr := range []transport{unixSockets, tcpSockets} {
				add("TestGridFramesAreReadFDTD", 0, identityCase{fix: "fdtd", steps: 60, transport: tr, perturb: at}, g)
			}
		}
	}
	return rows, groups
}

// TestGridDecompositionIdentityMatrixLJ and the suites below are the
// oracle's entry points: each runs the table's rows under its own name.
func TestGridDecompositionIdentityMatrixLJ(t *testing.T)              { runIdentity(t) }
func TestGridDecompositionIdentityMatrixEffHam(t *testing.T)          { runIdentity(t) }
func TestGridDecompositionIdentityMatrixAllegro(t *testing.T)         { runIdentity(t) }
func TestGridDecompositionIdentityMatrixAllegroBatched(t *testing.T)  { runIdentity(t) }
func TestGridDecompositionIdentityMatrixBalancedLJ(t *testing.T)      { runIdentity(t) }
func TestGridDecompositionIdentityMatrixBalancedEffHam(t *testing.T)  { runIdentity(t) }
func TestGridDecompositionIdentityMatrixBalancedAllegro(t *testing.T) { runIdentity(t) }
func TestMultiProcessIdentityMatrixLJ(t *testing.T)                   { runIdentity(t) }
func TestMultiProcessIdentityMatrixAllegro(t *testing.T)              { runIdentity(t) }
func TestResumeIdentityLJ(t *testing.T)                               { runIdentity(t) }
func TestResumeIdentityAllegro(t *testing.T)                          { runIdentity(t) }
func TestResumeIdentitySingleRankToMany(t *testing.T)                 { runIdentity(t) }
func TestPartialEnginesOverSharedComm(t *testing.T)                   { runIdentity(t) }
func TestGridPartialEnginesOverSharedComm(t *testing.T)               { runIdentity(t) }
func TestGridStencilIdentityMatrixFDTD(t *testing.T)                  { runIdentity(t) }
func TestGridStencilIdentityMatrixTDDFT(t *testing.T)                 { runIdentity(t) }
func TestGridMultiProcessIdentityFDTD(t *testing.T)                   { runIdentity(t) }
func TestGridMultiProcessIdentityTDDFT(t *testing.T)                  { runIdentity(t) }
func TestGridFramesAreReadFDTD(t *testing.T)                          { runIdentity(t) }

// runIdentity runs the table's rows under the calling suite, group by
// group, each row a subtest named by its id.
func runIdentity(t *testing.T) {
	rows, groups := identityTable(testing.Short())
	var order []string
	byGroup := map[string][]identityCase{}
	for _, c := range rows {
		g := c.id[:strings.LastIndex(c.id, "/")]
		if g != t.Name() && !strings.HasPrefix(g, t.Name()+"/") {
			continue
		}
		if byGroup[g] == nil {
			order = append(order, g)
		}
		byGroup[g] = append(byGroup[g], c)
	}
	if len(order) == 0 {
		t.Fatalf("the identity table has no rows under %s", t.Name())
	}
	for _, g := range order {
		if g == t.Name() {
			runGroup(t, byGroup[g], groups[g])
		} else {
			t.Run(strings.TrimPrefix(g, t.Name()+"/"), func(t *testing.T) { runGroup(t, byGroup[g], groups[g]) })
		}
	}
}

// runGroup runs rows and then, when every one of them ran, the group
// checks over their outcomes. Rows of a grid solver on the same grid must
// also agree on their observables bit for bit: those reductions run in
// ascending rank order on every transport.
func runGroup(t *testing.T, rows []identityCase, want expect) {
	var outs []outcome
	obs := map[[3]int][]float64{}
	for _, c := range rows {
		t.Run(c.leaf(), func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("full-length row")
			}
			if c.transport >= unixSockets {
				mpSkip(t)
			}
			o := checkRow(t, c)
			if identityFixtures[c.fix].particle == nil && c.perturb == perturbNone {
				if prev, ok := obs[c.grid]; ok && !slices.Equal(prev, o.obs) {
					t.Errorf("observables %v differ from %v on the same grid", o.obs, prev)
				}
				obs[c.grid] = o.obs
			}
			outs = append(outs, o)
		})
	}
	if len(outs) < len(rows) {
		return
	}
	full := !testing.Short()
	var interior, migrated, prunes int64
	grew := false
	for _, o := range outs {
		interior += o.stats.Interior
		migrated += o.stats.Migrated
		prunes += o.stats.Prunes
		grew = grew || o.stats.Buffer > o.stats.Skin
	}
	if want&wantSplit != 0 && interior == 0 {
		t.Error("no row has interior atoms: the comm/compute split never ran")
	}
	if want&wantDual != 0 && full && (!grew || prunes == 0) {
		t.Errorf("the dual list never ran: buffer grew past the skin %v, %d prunes", grew, prunes)
	}
	if want&wantMigration != 0 && full && migrated == 0 {
		t.Error("no row migrated an atom")
	}
}

// checkRow runs c and fails t unless its last frame is its reference's bit
// for bit, its observables are within the fixture's tolerance and its
// event counts meet c.want.
func checkRow(t *testing.T, c identityCase) outcome {
	t.Helper()
	ref := reference(t, c.fix, c.steps)
	o, err := c.run(false)
	if err != nil {
		t.Fatal(err)
	}
	if c.perturb != perturbNone {
		if firstDiff(o.last(), ref.last()) < 0 {
			t.Errorf("the last frame is bitwise the 1x1x1 reference with the %s float of every received frame moved by 1e-13: a frame carries a float no step reads", c.perturb)
		}
		return o
	}
	if i := firstDiff(o.last(), ref.last()); i >= 0 {
		t.Errorf("last frame is not bitwise the 1x1x1 reference: %s differs", ref.describe(i, c.fix))
		diverge(t, c)
		t.FailNow()
	}
	checkObs(t, c.fix, ref, o)
	st, full := o.stats, !testing.Short()
	if c.want&wantEvents != 0 && full && (st.Rebuilds < 5 || st.Migrated == 0) {
		t.Errorf("%d rebuilds and %d migrations in %d steps: the event path was not exercised", st.Rebuilds, st.Migrated, c.steps)
	}
	if c.want&wantEveryStep != 0 && st.Rebuilds != int64(c.steps)+1 {
		t.Errorf("%d rebuilds in %d steps at skin 0, want one per step and the prime", st.Rebuilds, c.steps)
	}
	if c.want&wantFewRebuilds != 0 && st.Rebuilds > 2 {
		t.Errorf("%d rebuilds at the wide skin, want the prime and at most one more", st.Rebuilds)
	}
	if c.want&wantSingleList != 0 && (st.Prunes != 0 || st.Buffer != st.Skin) {
		t.Errorf("%d prunes, rebuild buffer %g; a two-phase field keeps the skin %g", st.Prunes, st.Buffer, st.Skin)
	}
	if c.want&wantRebalance != 0 && (st.Rebalances < 1 || st.MaxShift > st.Halo) {
		t.Errorf("%d rebalances, max cut shift %g: want one, within the halo %g", st.Rebalances, st.MaxShift, st.Halo)
	}
	if c.want&wantCutsMoved != 0 && (st.Rebalances < 2 || st.MaxShift <= 0 || st.MaxShift > st.Halo+1e-12 || st.Migrated == 0) {
		t.Errorf("%d rebalances, max cut shift %g (halo %g), %d migrations: want ≥2 rebalances and a cut that moved within the halo and atoms across it",
			st.Rebalances, st.MaxShift, st.Halo, st.Migrated)
	}
	if c.want&wantHaloTraffic != 0 && st.HaloBytes == 0 {
		t.Error("no halo traffic on a partitioned run")
	}
	return o
}

// checkObs fails t unless o's observables are within fix's tolerance of
// the reference's.
func checkObs(t *testing.T, fix string, ref, o outcome) {
	t.Helper()
	tol := identityFixtures[fix].tol
	for i, v := range o.obs {
		lim, r := 1e-12, ref.obs[i]
		if i < len(tol) {
			lim = tol[i]
		}
		if rel := math.Abs(v-r) / math.Max(math.Abs(r), 1e-300); rel > lim {
			t.Errorf("observable %d = %v vs 1x1x1 %v (rel %g)", i, v, r, rel)
		}
	}
}

// identityRefs memoizes reference by fixture and length.
var identityRefs = map[string]outcome{}

// reference is the 1x1x1 static run of fix at its own skin and block size,
// computed once per process.
func reference(t testing.TB, fix string, steps int) outcome {
	t.Helper()
	key := fmt.Sprintf("%s/%d", fix, steps)
	o, ok := identityRefs[key]
	if !ok {
		var err error
		if o, err = referenceCase(fix, steps).run(false); err != nil {
			t.Fatalf("reference %s: %v", key, err)
		}
		identityRefs[key] = o
	}
	return o
}

func referenceCase(fix string, steps int) identityCase {
	return identityCase{id: fix + "/reference", fix: fix, grid: [3]int{1, 1, 1}, steps: steps, skin: ownSkin}
}

// diverge re-runs c and its reference one step at a time, gathering in
// gid (or cell) order after every step, and reports the first step and
// element where they differ with both bit patterns.
func diverge(t *testing.T, c identityCase) {
	t.Helper()
	ref, err := referenceCase(c.fix, c.steps).run(true)
	if err != nil {
		t.Fatalf("tracing the reference: %v", err)
	}
	got, err := c.run(true)
	if err != nil {
		t.Fatalf("tracing the row: %v", err)
	}
	for s := range min(len(ref.frames), len(got.frames)) {
		if i := firstDiff(got.frames[s], ref.frames[s]); i >= 0 {
			t.Errorf("first divergence at step %d, %s: got %#016x, want %#016x",
				s+1, ref.describe(i, c.fix), math.Float64bits(got.frames[s][i]), math.Float64bits(ref.frames[s][i]))
			return
		}
	}
	t.Error("re-run one step at a time, no step differs")
}

// outcome is what a row leaves: its gathered frames (X, V then F by gid
// for a particle fixture, every field by cell for a grid solver), its
// observables and its event counts.
type outcome struct {
	frames [][]float64
	obs    []float64
	stats  rowStats
	widths []int // a grid solver's per-field widths (not sent by workers)
}

// rowStats are the event counts of the ranks a process hosts.
type rowStats struct {
	Rebuilds, Migrated, Prunes, Rebalances, Interior, HaloBytes int64
	Skin, Buffer, MaxShift, Halo                                float64
}

func (o outcome) last() []float64 { return o.frames[len(o.frames)-1] }

// describe names frame element i.
func (o outcome) describe(i int, fix string) string {
	if o.widths == nil {
		n := len(o.last()) / 9
		return fmt.Sprintf("gid %d %c[%c]", i%(3*n)/3, "XVF"[i/(3*n)], "xyz"[i%3])
	}
	n := identityFixtures[fix].grid.N
	for f, w := range o.widths {
		size := n[0] * n[1] * n[2] * w
		if i < size {
			cell := i / w
			return fmt.Sprintf("field %d cell (%d,%d,%d) component %d", f, cell/(n[1]*n[2]), cell/n[2]%n[1], cell%n[2], i%w)
		}
		i -= size
	}
	return fmt.Sprintf("element %d past the last field", i)
}

// firstDiff is the first index where a and b differ in bits, or -1.
func firstDiff(a, b []float64) int {
	for i := range min(len(a), len(b)) {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// run executes c on its transport and returns rank 0's outcome: the
// state after the last step, or after every step when trace is set.
func (c identityCase) run(trace bool) (outcome, error) {
	switch c.transport {
	case inProcess:
		return c.runRank(nil, 0, trace)
	case partialEngines:
		return c.runPartial(trace)
	}
	rdv, err := os.MkdirTemp("", "mlmdrdv")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(rdv)
	outputs, errs := startWorkers(c, rdv, trace, nil)
	for r, err := range errs {
		if err != nil {
			return outcome{}, fmt.Errorf("worker %d: %v\n%s", r, err, outputs[r])
		}
	}
	return readOutcome(rdv)
}

// runPartial runs one single-rank engine per rank of c over one in-process
// communicator; every rank must report rank 0's observables.
func (c identityCase) runPartial(trace bool) (outcome, error) {
	p := c.grid[0] * c.grid[1] * c.grid[2]
	comm, err := cluster.NewComm(p, cluster.Interconnect{})
	if err == nil && c.perturb != perturbNone {
		comm, err = cluster.NewCommOver(perturbedTransport{comm.Transport(), c.perturb}, cluster.Interconnect{})
	}
	if err != nil {
		return outcome{}, err
	}
	outs := make([]outcome, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[r], errs[r] = c.runRank(comm, r, trace)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return outcome{}, err
	}
	for r := 1; r < p; r++ {
		if !slices.Equal(outs[r].obs, outs[0].obs) {
			return outcome{}, fmt.Errorf("rank %d observables %v differ from rank 0's %v", r, outs[r].obs, outs[0].obs)
		}
	}
	return outs[0], nil
}

// runRank runs c on the ranks this process hosts: every rank when comm is
// nil, rank local of comm otherwise.
func (c identityCase) runRank(comm *cluster.Comm, local int, trace bool) (outcome, error) {
	fx, ok := identityFixtures[c.fix]
	if !ok {
		return outcome{}, fmt.Errorf("unknown fixture %q", c.fix)
	}
	if fx.particle == nil {
		return c.runGrid(fx.grid, comm, local, trace)
	}
	s, err := fx.particle()
	if err != nil {
		return outcome{}, err
	}
	cfg := s.cfg
	if c.skin != ownSkin {
		cfg.Skin = c.skin
	}
	if c.balance != static {
		cfg.Balance, cfg.BalanceCost = true, fx.cost
		if c.balance == balancedEveryRebuild {
			cfg.BalanceEvery = 1
		}
	}
	if c.block != 0 {
		s.model.BlockSize = c.block
	}
	if c.poison {
		newFF := cfg.NewFF
		cfg.NewFF = func(r int) RankFF { return poisonSkinAux(newFF(r)) }
	}
	cfg.Comm, cfg.LocalRank = comm, local
	var o outcome
	steps := c.steps
	if c.resume != nil {
		if o.frames, err = c.checkpoint(fx.dt, s, cfg, trace); err != nil {
			return o, err
		}
		steps -= c.resume.at
	}
	cfg.Grid = c.grid
	eng, err := newWeightedEngine(cfg, s)
	if err != nil {
		return o, err
	}
	defer eng.Close()
	var res RunResult
	frames, err := advance(steps, trace, func(n int) error {
		res = eng.Run(n, fx.dt, 0, 0)
		return res.Err
	}, func() ([]float64, error) {
		eng.GatherAll(s.sys)
		return particleFrame(s.sys), eng.Err()
	})
	if err == nil {
		err = eng.Validate()
	}
	o.frames = append(o.frames, frames...)
	o.obs = []float64{res.PE, res.KE}
	o.stats.Rebuilds, o.stats.Migrated = eng.Stats()
	o.stats.Prunes, o.stats.Buffer = eng.ListStats()
	o.stats.Rebalances, o.stats.MaxShift = eng.BalanceStats()
	o.stats.Skin, o.stats.Halo = cfg.Skin, eng.currentHalo()
	for _, rs := range eng.local {
		o.stats.Interior += int64(rs.nInt)
	}
	return o, err
}

// particleFrame is sys's positions, velocities and forces by gid.
func particleFrame(sys *md.System) []float64 { return slices.Concat(sys.X, sys.V, sys.F) }

func newWeightedEngine(cfg Config, s particleSetup) (*Engine, error) {
	eng, err := NewEngine(cfg, s.sys)
	if err == nil && s.w != nil {
		eng.SetPerAtomWeights(s.w)
	}
	return eng, err
}

// checkpoint runs the first resume.at steps of c on resume.from through
// RunCheckpointed and mlmdio, then reads the last checkpoint back into
// s.sys; traced, it checkpoints after every step and returns the frames.
func (c identityCase) checkpoint(dt float64, s particleSetup, cfg Config, trace bool) ([][]float64, error) {
	r := c.resume
	dir, err := os.MkdirTemp("", "mlmdresume")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "resume.ckpt")
	cfg.Grid = r.from
	eng, err := newWeightedEngine(cfg, s)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	writes, done := 0, 0
	frames, err := advance(r.at, trace, func(n int) error {
		_, err := eng.RunCheckpointed(n, dt, 0, 0, r.every, s.sys, func(k int) error {
			writes++
			cp := &mlmdio.Checkpoint{Step: int64(done + k), Dt: dt, Grid: eng.Grid(), Sys: s.sys}
			for a := range 3 {
				cp.Cuts[a] = eng.CutPlanes(a)
			}
			return mlmdio.WriteCheckpointFile(path, cp)
		})
		done += n
		return err
	}, func() ([]float64, error) { return particleFrame(s.sys), nil })
	if err != nil {
		return nil, err
	}
	if want := (r.at + r.every - 1) / r.every; !trace && writes != want {
		return nil, fmt.Errorf("%d checkpoint writes for %d steps every %d, want %d", writes, r.at, r.every, want)
	}
	cp, err := mlmdio.ReadCheckpointFile(path)
	if err != nil {
		return nil, err
	}
	if cp.Step != int64(r.at) || cp.Dt != dt || cp.Grid != r.from {
		return nil, fmt.Errorf("checkpoint metadata %+v does not describe the interrupted run", cp)
	}
	*s.sys = *cp.Sys
	if !trace {
		frames = nil
	}
	return frames, nil
}

// runGrid runs a grid solver's row on the ranks this process hosts.
func (c identityCase) runGrid(cfg GridConfig, comm *cluster.Comm, local int, trace bool) (outcome, error) {
	cfg.Grid, cfg.Comm, cfg.LocalRank = c.grid, comm, local
	if c.poison {
		newWork := cfg.NewWork
		cfg.NewWork = func(r int, d halo.Domain) (GridWorkload, error) {
			w, err := newWork(r, d)
			if err != nil {
				return nil, err
			}
			return poisonGhosts(w)
		}
	}
	eng, err := NewGridEngine(cfg)
	if err != nil {
		return outcome{}, err
	}
	defer eng.Close()
	var o outcome
	work := eng.local[0].work
	for idx := range work.NumFields() {
		o.widths = append(o.widths, work.FieldWidth(idx))
	}
	var obs []float64
	o.frames, err = advance(c.steps, trace, func(n int) (err error) {
		obs, err = eng.Run(n)
		return err
	}, func() ([]float64, error) {
		var frame []float64
		for idx, w := range o.widths {
			dst := make([]float64, cfg.N[0]*cfg.N[1]*cfg.N[2]*w)
			if err := eng.GatherField(idx, dst); err != nil {
				return nil, err
			}
			frame = append(frame, dst...)
		}
		return frame, nil
	})
	o.obs = slices.Clone(obs)
	o.stats.HaloBytes = eng.HaloBytes()
	return o, err
}

// advance runs steps through step, in one call or, traced, one step per
// call, and collects frame after the last call or after every call.
func advance(steps int, trace bool, step func(n int) error, frame func() ([]float64, error)) ([][]float64, error) {
	n, calls := steps, 1
	if trace {
		n, calls = 1, steps
	}
	var frames [][]float64
	for range calls {
		if err := step(n); err != nil {
			return frames, err
		}
		f, err := frame()
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// workerCmd re-executes the test binary as rank r of c (see TestMain).
func workerCmd(c identityCase, r int, rdv string, trace bool) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "MLMD_SHARD_WORKER="+c.id, "MLMD_WORKER_RANK="+strconv.Itoa(r), "MLMD_WORKER_RDV="+rdv)
	if trace {
		cmd.Env = append(cmd.Env, "MLMD_WORKER_TRACE=1")
	}
	return cmd, nil
}

// startWorkers runs one worker per rank of c to completion, with extra's
// environment added per rank, and returns each one's output and error.
func startWorkers(c identityCase, rdv string, trace bool, extra func(r int) []string) ([][]byte, []error) {
	size := c.grid[0] * c.grid[1] * c.grid[2]
	outputs := make([][]byte, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := range size {
		cmd, err := workerCmd(c, r, rdv, trace)
		if err != nil {
			errs[r] = err
			continue
		}
		if extra != nil {
			cmd.Env = append(cmd.Env, extra(r)...)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outputs[r], errs[r] = cmd.CombinedOutput()
		}()
	}
	wg.Wait()
	return outputs, errs
}

// TestMain dispatches worker re-executions before the test framework runs.
func TestMain(m *testing.M) {
	if os.Getenv("MLMD_SHARD_WORKER") != "" {
		if err := runWorker(); err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runWorker is one rank of the case named by MLMD_SHARD_WORKER over its
// socket transport in the rendezvous dir MLMD_WORKER_RDV; rank 0 writes
// the outcome there.
func runWorker() error {
	id := os.Getenv("MLMD_SHARD_WORKER")
	cases, _ := identityTable(false)
	cases = append(cases, killCase, recoverCase)
	i := slices.IndexFunc(cases, func(c identityCase) bool { return c.id == id })
	if i < 0 {
		return fmt.Errorf("unknown case %q", id)
	}
	c := cases[i]
	rank, err := strconv.Atoi(os.Getenv("MLMD_WORKER_RANK"))
	if err != nil {
		return err
	}
	rdv := os.Getenv("MLMD_WORKER_RDV")
	if os.Getenv("MLMD_WORKER_RECOVER") != "" {
		return runMPRecoverWorker(c, rank, rdv)
	}
	size := c.grid[0] * c.grid[1] * c.grid[2]
	dial := cluster.NewSocketTransportOpts
	if c.transport == tcpSockets {
		dial = cluster.NewTCPRendezvousTransport
	}
	tr, err := dial(rdv, rank, size, c.grid, cluster.SocketOptions{})
	if err != nil {
		return err
	}
	defer tr.Close()
	var over cluster.Transport = tr
	if c.perturb != perturbNone {
		over = perturbedTransport{tr, c.perturb}
	}
	comm, err := cluster.NewCommOver(over, cluster.Interconnect{})
	if err != nil {
		return err
	}
	// A peer that dies mid-run (the kill test) surfaces here as the typed
	// failure, printed for the parent to check which rank was blamed;
	// Close sends a bye frame, so the other survivors see a graceful
	// departure, not a second failure.
	o, err := c.runRank(comm, rank, os.Getenv("MLMD_WORKER_TRACE") != "")
	if err != nil || rank != 0 {
		return err
	}
	return writeOutcome(rdv, o)
}

// writeOutcome stores o in dir as little-endian bits: the comparison is
// bitwise, so the file format is too.
func writeOutcome(dir string, o outcome) error {
	var b bytes.Buffer
	hdr := [3]int64{int64(len(o.frames)), int64(len(o.frames[0])), int64(len(o.obs))}
	binary.Write(&b, binary.LittleEndian, hdr)
	binary.Write(&b, binary.LittleEndian, o.stats)
	binary.Write(&b, binary.LittleEndian, o.obs)
	for _, f := range o.frames {
		binary.Write(&b, binary.LittleEndian, f)
	}
	return os.WriteFile(filepath.Join(dir, "outcome"), b.Bytes(), 0o644)
}

// readOutcome reads what writeOutcome stored in dir.
func readOutcome(dir string) (outcome, error) {
	p, err := os.ReadFile(filepath.Join(dir, "outcome"))
	if err != nil {
		return outcome{}, fmt.Errorf("rank 0 wrote no outcome: %w", err)
	}
	r := bytes.NewReader(p)
	var hdr [3]int64
	var o outcome
	read := func(v any) {
		if err == nil {
			err = binary.Read(r, binary.LittleEndian, v)
		}
	}
	read(&hdr)
	read(&o.stats)
	o.obs = make([]float64, hdr[2])
	read(o.obs)
	o.frames = make([][]float64, hdr[0])
	for i := range o.frames {
		o.frames[i] = make([]float64, hdr[1])
		read(o.frames[i])
	}
	if err == nil && r.Len() != 0 {
		err = fmt.Errorf("%d trailing bytes in the outcome", r.Len())
	}
	return o, err
}

// FuzzIdentity draws in-process rows from the oracle's axes — fixture or
// grid solver, grid shape, skin, balancing, a resume step, an Allegro
// block size and poisoned ghosts — and holds each to its 1x1x1 reference,
// reaching combinations no table row pins, such as balanced cuts with a
// resume inside a rebuild window.
func FuzzIdentity(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint8(0), uint8(2), uint8(13), uint8(0), uint8(26), uint8(0))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(1), uint8(7), uint8(1), uint8(16), uint8(1))
	f.Add(uint8(2), uint8(6), uint8(2), uint8(0), uint8(0), uint8(0), uint8(20), uint8(0))
	f.Add(uint8(5), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(24), uint8(0))
	f.Add(uint8(4), uint8(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(30), uint8(1))
	f.Fuzz(func(t *testing.T, fix, shape, skin, balance, resume, block, steps, poison uint8) {
		c, ok := fuzzCase(fix, shape, skin, balance, resume, block, steps, poison)
		if !ok {
			t.Skip("the grid does not admit the halo")
		}
		checkRow(t, c)
	})
}

// fuzzCase maps FuzzIdentity's inputs onto an in-process row.
func fuzzCase(fix, shape, skin, balance, resume, block, steps, poison uint8) (identityCase, bool) {
	fixtures := []string{"lj", "lj-hotspot", "effham", "allegro", "fdtd", "tddft"}
	shapes := [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {2, 2, 1}, {2, 1, 2}, {2, 2, 2}, {4, 2, 1}, {4, 1, 1}}
	c := identityCase{
		id:    "fuzz",
		fix:   fixtures[int(fix)%len(fixtures)],
		grid:  shapes[int(shape)%len(shapes)],
		steps: 4 + int(steps)%40,
	}
	fx := identityFixtures[c.fix]
	// Poison means something to a grid solver and a two-phase field.
	c.poison = poison%2 == 1 && (fx.particle == nil || c.fix == "allegro")
	if fx.particle == nil {
		cfg := fx.grid
		cfg.Grid = c.grid
		eng, err := NewGridEngine(cfg)
		if err == nil {
			eng.Close()
		}
		return c, err == nil
	}
	s, err := fx.particle()
	if err != nil {
		return c, false
	}
	c.skin = s.cfg.Skin * []float64{1, 0, 0.5, 2}[skin%4]
	c.balance = balanceMode(balance % 3)
	if s.model != nil {
		c.block = []int{0, 16, 64}[block%3]
	}
	if at := int(resume) % c.steps; at > 0 {
		c.resume = &resumePlan{from: shapes[(int(shape)+1+int(resume))%len(shapes)], at: at, every: 1 + int(resume)%7}
	}
	admits := func(g [3]int) bool {
		box := [3]float64{s.sys.Lx, s.sys.Ly, s.sys.Lz}
		for a, p := range g {
			if p > 1 && box[a]/float64(p) < s.cfg.Cutoff+c.skin {
				return false
			}
		}
		return true
	}
	return c, admits(c.grid) && (c.resume == nil || admits(c.resume.from))
}
