package md

import (
	"math"
	"math/rand"
	"testing"

	"mlmd/internal/par"
)

// ljSystem builds a dense random system with an LJ force field whose
// neighbor list is current.
func ljSystem(tb testing.TB, n int, seed int64) (*System, *LennardJones) {
	tb.Helper()
	// Box sized for reduced density ~0.5.
	l := math.Cbrt(float64(n) / 0.5)
	sys, err := NewSystem(n, l, l, l)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range sys.X {
		sys.X[i] = rng.Float64() * l
	}
	for i := 0; i < n; i++ {
		sys.Mass[i] = 1
	}
	nl, err := NewNeighborList(2.5, 0.3)
	if err != nil {
		tb.Fatal(err)
	}
	return sys, &LennardJones{Epsilon: 1, Sigma: 1, NL: nl}
}

func withWorkers(tb testing.TB, n int, f func()) {
	tb.Helper()
	prev := par.SetWorkers(n)
	defer par.SetWorkers(prev)
	f()
}

// TestParallelForcesBitIdentical: LJ forces and energy are the same bits
// for every worker count — each force is a self-contained row sum and the
// energy is summed in fixed 128-atom chunks, whoever runs them.
func TestParallelForcesBitIdentical(t *testing.T) {
	sys, lj := ljSystem(t, 612, 11)
	var fRef []float64
	var peRef float64
	for _, workers := range []int{1, 2, 4} {
		withWorkers(t, workers, func() {
			for i := range sys.F {
				sys.F[i] = math.NaN() // catch unwritten components
			}
			pe := lj.ComputeForces(sys)
			if fRef == nil {
				fRef, peRef = append([]float64(nil), sys.F...), pe
				return
			}
			if math.Float64bits(pe) != math.Float64bits(peRef) {
				t.Errorf("workers=%d: pe %v != 1-worker %v", workers, pe, peRef)
			}
			for k := range fRef {
				if math.Float64bits(sys.F[k]) != math.Float64bits(fRef[k]) {
					t.Fatalf("workers=%d: F[%d] = %v != 1-worker %v", workers, k, sys.F[k], fRef[k])
				}
			}
		})
	}
	if lj.NL.NumPairs() == 0 {
		t.Fatal("degenerate test: no pairs")
	}
}

// TestSteadyStateZeroAllocs: after warm-up, neighbor rebuilds and LJ force
// evaluations must not allocate, serial or parallel.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			sys, lj := ljSystem(t, 500, 5)
			lj.NL.Build(sys)
			lj.ComputeForces(sys)
			if a := testing.AllocsPerRun(20, func() { lj.NL.Build(sys) }); a > 0 {
				t.Errorf("workers=%d: neighbor rebuild allocates %.1f/op, want 0", workers, a)
			}
			if a := testing.AllocsPerRun(20, func() { lj.ComputeForces(sys) }); a > 0 {
				t.Errorf("workers=%d: LJ forces allocate %.1f/op, want 0", workers, a)
			}
		})
	}
}

// TestParallelMDTrajectory: a short NVE run under forced parallelism must
// track the serial trajectory exactly (forces are bit-identical, so the
// integrator sees identical inputs).
func TestParallelMDTrajectory(t *testing.T) {
	run := func(workers int) []float64 {
		var out []float64
		withWorkers(t, workers, func() {
			sys, lj := ljSystem(t, 300, 9)
			sys.InitVelocities(0.8, 4)
			lj.ComputeForces(sys)
			for s := 0; s < 25; s++ {
				VelocityVerlet(sys, lj, 0.002)
			}
			out = append([]float64(nil), sys.X...)
		})
		return out
	}
	ref := run(1)
	got := run(4)
	for k := range ref {
		if math.Float64bits(ref[k]) != math.Float64bits(got[k]) {
			t.Fatalf("trajectory diverged at X[%d]: %v vs %v", k, ref[k], got[k])
		}
	}
}

// TestBuildEmptySystem: a zero-atom system (constructible by literal even
// though NewSystem forbids it) must build an empty list, not panic.
func TestBuildEmptySystem(t *testing.T) {
	sys := &System{N: 0, Lx: 10, Ly: 10, Lz: 10}
	nl, err := NewNeighborList(2.5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	nl.Build(sys)
	if nl.NumPairs() != 0 {
		t.Fatalf("empty system produced %d pairs", nl.NumPairs())
	}
	lj := &LennardJones{Epsilon: 1, Sigma: 1, NL: nl}
	if pe := lj.ComputeForces(sys); pe != 0 {
		t.Fatalf("empty system pe = %v", pe)
	}
}

func benchSystem(b *testing.B, n int) (*System, *LennardJones) {
	sys, lj := ljSystem(b, n, 42)
	lj.NL.Build(sys)
	lj.ComputeForces(sys)
	return sys, lj
}

// BenchmarkNeighborBuild times one full serial build: a random gas of 4 000
// atoms (cutoff 3.0 + skin 0.3, 9 cells per axis), the 8 192-atom LJ liquid
// of BenchmarkLJForces, and fcc5324, the shape of the md.lj benchmark
// workload (11³ fcc cells at a = 1.7, 2.0 + 0.3), its atoms moved off their
// sites by up to ±0.05.
func BenchmarkNeighborBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	gas, _ := NewSystem(4000, 30, 30, 30)
	for i := range gas.X {
		gas.X[i] = rng.Float64() * 30
	}
	liquid, _ := ljSystem(b, 8192, 42)
	fcc, _ := NewFCCSystem(11, 1.7, 50)
	for i := range fcc.X {
		fcc.X[i] += 0.05 * (2*rng.Float64() - 1)
	}
	fcc.Wrap()
	for _, c := range []struct {
		name   string
		sys    *System
		cutoff float64
	}{{"gas4000", gas, 3.0}, {"lj8192", liquid, 2.5}, {"fcc5324", fcc, 2.0}} {
		b.Run(c.name, func(b *testing.B) {
			nl, _ := NewNeighborList(c.cutoff, 0.3)
			nl.Build(c.sys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nl.Build(c.sys)
			}
			b.ReportMetric(float64(c.sys.N)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Matoms/s")
		})
	}
}

// BenchmarkLJForces times one force evaluation (list current) of the
// 8 192-atom liquid and of fcc5324 (md.lj's shape and pair field: ε 0.01,
// cutoff 2.0 + 0.3, atoms off their sites by up to ±0.05) on each path of
// the LJ terms kernels. ns/cand is per stored neighbor.
func BenchmarkLJForces(b *testing.B) {
	liquid, ljLiquid := benchSystem(b, 8192)
	fcc := ljGoldenCases(b)[0]
	fcc.lj.ComputeForces(fcc.sys)
	for _, c := range []struct {
		name string
		sys  *System
		lj   *LennardJones
	}{{"lj8192", liquid, ljLiquid}, {"fcc5324", fcc.sys, fcc.lj}} {
		for _, path := range ljPaths {
			b.Run(c.name+"/"+path.name, func(b *testing.B) {
				if !path.available() {
					b.Skipf("no %s on this host", path.name)
				}
				onLJPath(path, func() {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.lj.ComputeForces(c.sys)
					}
					b.ReportMetric(float64(c.lj.NL.NumPairs())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
					b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(c.lj.NL.NumPairs()), "ns/cand")
				})
			})
		}
	}
}
