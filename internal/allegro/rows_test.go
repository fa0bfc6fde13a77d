package allegro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowsPath is one tier of the row kernels' dispatch.
type rowsPath struct {
	name string
	avx2 bool
}

var (
	rowsAVX2      = rowsPath{"avx2", true}
	rowsReference = rowsPath{"reference", false}
)

// onRowsPath runs f with useAVX2 set to p (a tier the host lacks stays off).
func onRowsPath(p rowsPath, f func()) {
	prev := useAVX2
	useAVX2 = prev && p.avx2
	defer func() { useAVX2 = prev }()
	f()
}

// rowsKernelTests are the tests that reach a row kernel. A plain run takes
// the vector path where the host has it; TestRowsKernelTestsOnReferencePath
// re-runs them on the Go references, which are then compared with
// themselves — the tests' own oracle is always the reference.
var rowsKernelTests = []struct {
	name string
	f    func(*testing.T)
}{
	{"RadialRowsMatchesReference", TestRadialRowsMatchesReference},
	{"RadialRowsFuzzSeeds", TestRadialRowsFuzzSeeds},
	{"PairGradRowsMatchesPairGradTaped", TestPairGradRowsMatchesPairGradTaped},
	{"PairGradRowsFuzzSeeds", TestPairGradRowsFuzzSeeds},
	{"PairGradRowsRefusesBadOperands", TestPairGradRowsRefusesBadOperands},
	{"AllegroForcesGolden", TestAllegroForcesGolden},
	{"EvalBlockMatchesEvalAtom", TestEvalBlockMatchesEvalAtom},
	{"PairGradTapedMatchesRecomputed", TestPairGradTapedMatchesRecomputed},
}

// TestRowsKernelTestsOnReferencePath: the Go references, the only path off
// amd64 and on a host without AVX2, pass every kernel test too.
func TestRowsKernelTestsOnReferencePath(t *testing.T) {
	onRowsPath(rowsReference, func() {
		for _, kt := range rowsKernelTests {
			t.Run(kt.name, kt.f)
		}
	})
}

// sameBits reports whether a and b have one Float64bits, or are both NaN.
// NaN payloads are the one thing not compared: where two NaNs with
// different payloads meet in one operation, the hardware returns one of them
// by operand order, and Go's compiler may order the operands of a commutative
// operation either way.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func compareRows(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%x), want %v (%x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// rowsSpecials are the values a plain draw never produces.
var rowsSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, 1e300,
}

// radialR draws a pair distance for spec by mode: 0 inside the cutoff, 1 the
// cutoff's edges (just below, at, past), 2 a tiny or zero distance, 3 a
// special value, 4 a random bit pattern, 5 a mix.
func radialR(rng *rand.Rand, mode int, rc float64) float64 {
	if mode >= 5 {
		mode = rng.Intn(5)
	}
	switch mode {
	case 0:
		return rc * rng.Float64()
	case 1:
		return []float64{math.Nextafter(rc, 0), rc, math.Nextafter(rc, 2*rc), 1.5 * rc, rc * (1 - 1e-12)}[rng.Intn(5)]
	case 2:
		return []float64{0, 1e-9, 1e-300, math.SmallestNonzeroFloat64, 1e-3}[rng.Intn(5)]
	case 3:
		return rowsSpecials[rng.Intn(len(rowsSpecials))]
	}
	return math.Float64frombits(rng.Uint64())
}

// radialProblem returns an environment of n pairs for spec, its distances by
// mode and its displacements a random direction scaled to each (or a special
// value when the distance is not finite and positive).
func radialProblem(rng *rand.Rand, spec DescriptorSpec, n, mode int) *neighborEnv {
	env := &neighborEnv{}
	for p := 0; p < n; p++ {
		r := radialR(rng, mode, spec.Cutoff)
		ux, uy, uz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		s := r / math.Sqrt(ux*ux+uy*uy+uz*uz)
		env.j = append(env.j, p)
		env.r = append(env.r, r)
		env.dx = append(env.dx, ux*s)
		env.dy = append(env.dy, uy*s)
		env.dz = append(env.dz, uz*s)
	}
	return env
}

// checkRadialRows runs radialRows on env on the current path and on the
// reference, and wants the same tape and terms.
func checkRadialRows(t *testing.T, what string, spec DescriptorSpec, env *neighborEnv) {
	t.Helper()
	n := len(env.r)
	rl := spec.RadialLen()
	cs := spec.centers()
	tape := make([]float64, n*rl)
	spec.radialRows(env, cs, tape)
	terms := append([]float64(nil), env.terms[:4*spec.NRadial*n]...)
	wantTape := make([]float64, n*rl)
	onRowsPath(rowsReference, func() { spec.radialRows(env, cs, wantTape) })
	compareRows(t, "radialRows tape, "+what, tape, wantTape)
	compareRows(t, "radialRows terms, "+what, terms, env.terms[:4*spec.NRadial*n])
}

// rowsSpecs are the descriptor shapes the row tests run: nn.allegro's, one
// radial function, and a wider basis.
var rowsSpecs = []DescriptorSpec{
	{Cutoff: 2.5, NRadial: 5, NSpecies: 2},
	{Cutoff: 1, NRadial: 1, NSpecies: 1},
	{Cutoff: 6.25, NRadial: 8, NSpecies: 3},
}

// TestRadialRowsMatchesReference: radialRows' tape and terms equal the
// per-pair reference chain by Float64bits on every row length 0–67, each
// distance mode, and every descriptor shape of rowsSpecs.
func TestRadialRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, spec := range rowsSpecs {
		for n := 0; n <= 67; n++ {
			for mode := 0; mode <= 5; mode++ {
				checkRadialRows(t, fmt.Sprintf("%+v n %d mode %d", spec, n, mode), spec, radialProblem(rng, spec, n, mode))
			}
		}
	}
}

// radialFuzzSeeds are FuzzRadialRows's seed corpus, also run on the
// reference path: r at the cutoff, the rejected r == 0, NaN and ±Inf lanes
// (the sincos fallback), and row lengths that end in every tail.
var radialFuzzSeeds = []struct {
	seed          int64
	r             float64
	n, mode, spec uint8
}{
	{1, 2.5, 12, 0, 0}, {2, 0, 5, 2, 0}, {3, math.NaN(), 33, 5, 1},
	{4, math.Inf(1), 67, 1, 2}, {5, math.Inf(-1), 4, 3, 0}, {6, 1.25, 0, 0, 1},
	{7, math.Nextafter(2.5, 0), 66, 4, 0}, {8, 1e-300, 65, 5, 2},
}

// checkRadialFuzz is FuzzRadialRows's body: a row of 0–67 pairs of one
// distance mode (or a mix), with r at a seed-chosen position.
func checkRadialFuzz(t *testing.T, seed int64, r float64, n, mode, spec uint8) {
	rng := rand.New(rand.NewSource(seed))
	sp := rowsSpecs[int(spec)%len(rowsSpecs)]
	env := radialProblem(rng, sp, int(n%68), int(mode%6))
	if len(env.r) > 0 {
		env.r[rng.Intn(len(env.r))] = r
	}
	checkRadialRows(t, fmt.Sprintf("seed %d r %v", seed, r), sp, env)
}

// FuzzRadialRows: radialRows equals its per-pair reference by Float64bits on
// fuzzed rows: lengths that end in every tail, distances in, at and past the
// cutoff, special values and random bit patterns, and one fuzzed distance
// anywhere in the row.
func FuzzRadialRows(f *testing.F) {
	for _, s := range radialFuzzSeeds {
		f.Add(s.seed, s.r, s.n, s.mode, s.spec)
	}
	f.Fuzz(checkRadialFuzz)
}

// TestRadialRowsFuzzSeeds runs FuzzRadialRows's seed corpus.
func TestRadialRowsFuzzSeeds(t *testing.T) {
	for _, s := range radialFuzzSeeds {
		checkRadialFuzz(t, s.seed, s.r, s.n, s.mode, s.spec)
	}
}

// pairProblem is one pairGradRows call's operands.
type pairProblem struct {
	gD, s, tape, dx, dy, dz, r []float64
	gOff, sOff                 []int32
}

// newPairProblem draws n pairs for spec: payloads of a few centers (random,
// with a share of special values by rate, 0 = none), per-pair offsets into
// them for a random center and neighbor species, records from radialRows on
// the pairs' distances (by mode, as radialProblem), and the geometry.
func newPairProblem(rng *rand.Rand, spec DescriptorSpec, n, mode, rate int) *pairProblem {
	nr := spec.NRadial
	dim, vlen := spec.Dim(), 3*spec.NSpecies*nr
	const centers = 5
	draw := func() float64 {
		if rate > 0 && rng.Intn(rate) == 0 {
			return rowsSpecials[rng.Intn(len(rowsSpecials))]
		}
		return rng.NormFloat64()
	}
	pp := &pairProblem{gD: make([]float64, centers*dim), s: make([]float64, centers*vlen)}
	for i := range pp.gD {
		pp.gD[i] = draw()
	}
	for i := range pp.s {
		pp.s[i] = 3 * draw()
	}
	env := radialProblem(rng, spec, n, mode)
	pp.tape = make([]float64, n*spec.RadialLen())
	if n > 0 {
		onRowsPath(rowsReference, func() { spec.radialRows(env, spec.centers(), pp.tape) })
	}
	pp.dx, pp.dy, pp.dz, pp.r = env.dx, env.dy, env.dz, env.r
	for p := 0; p < n; p++ {
		c, sp := rng.Intn(centers), rng.Intn(spec.NSpecies)
		pp.gOff = append(pp.gOff, int32(c*dim+2*nr*sp))
		pp.sOff = append(pp.sOff, int32(c*vlen+3*nr*sp))
	}
	return pp
}

// checkPairGradRows runs pairGradRows on pp and wants PairGradTaped's terms
// pair by pair.
func checkPairGradRows(t *testing.T, what string, spec DescriptorSpec, pp *pairProblem) {
	t.Helper()
	n := len(pp.r)
	rl := spec.RadialLen()
	gx, gy, gz := make([]float64, n), make([]float64, n), make([]float64, n)
	spec.pairGradRows(gx, gy, gz, pp.gD, pp.s, pp.gOff, pp.sOff, pp.tape, pp.dx, pp.dy, pp.dz, pp.r)
	for p := 0; p < n; p++ {
		wx, wy, wz := spec.PairGradTaped(0, pp.gD[pp.gOff[p]:], pp.s[pp.sOff[p]:], pp.tape[p*rl:(p+1)*rl], pp.dx[p], pp.dy[p], pp.dz[p], pp.r[p])
		if !sameBits(gx[p], wx) || !sameBits(gy[p], wy) || !sameBits(gz[p], wz) {
			t.Fatalf("%s: pair %d of %d (r %v): (%v, %v, %v), want (%v, %v, %v)", what, p, n, pp.r[p], gx[p], gy[p], gz[p], wx, wy, wz)
		}
	}
}

// TestPairGradRowsMatchesPairGradTaped: pairGradRows equals PairGradTaped by
// Float64bits on every row length 0–67, each distance mode, with and without
// special values in the payloads, for every descriptor shape of rowsSpecs.
func TestPairGradRowsMatchesPairGradTaped(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, spec := range rowsSpecs {
		for n := 0; n <= 67; n++ {
			for mode := 0; mode <= 5; mode++ {
				for _, rate := range []int{0, 7} {
					checkPairGradRows(t, fmt.Sprintf("%+v n %d mode %d rate %d", spec, n, mode, rate), spec, newPairProblem(rng, spec, n, mode, rate))
				}
			}
		}
	}
}

// pairGradFuzzSeeds are FuzzPairGradRows's seed corpus, also run on the
// reference path: r at the cutoff, the rejected r == 0, NaN and ±Inf
// distances, special payload values, and row lengths that end in every tail.
var pairGradFuzzSeeds = []struct {
	seed                int64
	r                   float64
	n, mode, rate, spec uint8
}{
	{1, 2.5, 12, 0, 0, 0}, {2, 0, 5, 2, 0, 0}, {3, math.NaN(), 33, 5, 7, 1},
	{4, math.Inf(1), 67, 1, 3, 2}, {5, math.Inf(-1), 4, 3, 0, 0}, {6, 1.25, 0, 0, 0, 1},
	{7, math.Nextafter(2.5, 0), 66, 4, 11, 0}, {8, 1e-300, 65, 5, 5, 2},
}

// checkPairGradFuzz is FuzzPairGradRows's body: a row of 0–67 pairs of one
// distance mode (or a mix) and payloads with a share of special values, with
// r at a seed-chosen position (its record stays the drawn distance's, which
// the kernel does not mind).
func checkPairGradFuzz(t *testing.T, seed int64, r float64, n, mode, rate, spec uint8) {
	rng := rand.New(rand.NewSource(seed))
	sp := rowsSpecs[int(spec)%len(rowsSpecs)]
	pp := newPairProblem(rng, sp, int(n%68), int(mode%6), int(rate%16))
	if len(pp.r) > 0 {
		pp.r[rng.Intn(len(pp.r))] = r
	}
	checkPairGradRows(t, fmt.Sprintf("seed %d r %v", seed, r), sp, pp)
}

// FuzzPairGradRows: pairGradRows equals PairGradTaped by Float64bits on
// fuzzed rows: lengths that end in every tail, distances in, at and past the
// cutoff, special values in the payloads, and one fuzzed distance anywhere
// in the row.
func FuzzPairGradRows(f *testing.F) {
	for _, s := range pairGradFuzzSeeds {
		f.Add(s.seed, s.r, s.n, s.mode, s.rate, s.spec)
	}
	f.Fuzz(checkPairGradFuzz)
}

// TestPairGradRowsFuzzSeeds runs FuzzPairGradRows's seed corpus.
func TestPairGradRowsFuzzSeeds(t *testing.T) {
	for _, s := range pairGradFuzzSeeds {
		checkPairGradFuzz(t, s.seed, s.r, s.n, s.mode, s.rate, s.spec)
	}
}

// TestPairGradRowsRefusesBadOperands: the kernel checks nothing, so the
// wrapper refuses short operands and offsets that would read past a payload
// before anything is written.
func TestPairGradRowsRefusesBadOperands(t *testing.T) {
	spec := rowsSpecs[0]
	pp := newPairProblem(rand.New(rand.NewSource(52)), spec, 8, 0, 0)
	gx, gy, gz := make([]float64, 8), make([]float64, 8), make([]float64, 8)
	call := func() {
		spec.pairGradRows(gx, gy, gz, pp.gD, pp.s, pp.gOff, pp.sOff, pp.tape, pp.dx, pp.dy, pp.dz, pp.r)
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	mustPanic("short gx", func() { gx = gx[:7]; defer func() { gx = gx[:8] }(); call() })
	mustPanic("short tape", func() { tp := pp.tape; pp.tape = tp[:len(tp)-1]; defer func() { pp.tape = tp }(); call() })
	mustPanic("cotangent offset past the payload", func() {
		o := pp.gOff[3]
		pp.gOff[3] = int32(len(pp.gD) - 2*spec.NRadial + 1)
		defer func() { pp.gOff[3] = o }()
		call()
	})
	mustPanic("negative accumulator offset", func() {
		o := pp.sOff[5]
		pp.sOff[5] = -1
		defer func() { pp.sOff[5] = o }()
		call()
	})
	for p := range gx {
		if gx[p] != 0 || gy[p] != 0 || gz[p] != 0 {
			t.Fatalf("a rejected call wrote pair %d", p)
		}
	}
}

// BenchmarkPairGradRows: ns per pair of the kernel and of the reference, on
// nn.allegro's descriptor shape and a neighbor-row's worth of pairs.
func BenchmarkPairGradRows(b *testing.B) {
	spec := rowsSpecs[0]
	pp := newPairProblem(rand.New(rand.NewSource(1)), spec, 12, 0, 0)
	n := len(pp.r)
	gx, gy, gz := make([]float64, n), make([]float64, n), make([]float64, n)
	for _, p := range []rowsPath{rowsAVX2, rowsReference} {
		b.Run(p.name, func(b *testing.B) {
			onRowsPath(p, func() {
				for i := 0; i < b.N; i++ {
					spec.pairGradRows(gx, gy, gz, pp.gD, pp.s, pp.gOff, pp.sOff, pp.tape, pp.dx, pp.dy, pp.dz, pp.r)
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pair")
		})
	}
}

// BenchmarkRadialRows: ns per pair of the kernels and of the reference, on
// nn.allegro's descriptor shape and a neighbor-row's worth of pairs.
func BenchmarkRadialRows(b *testing.B) {
	spec := rowsSpecs[0]
	env := radialProblem(rand.New(rand.NewSource(1)), spec, 12, 0)
	cs := spec.centers()
	tape := make([]float64, len(env.r)*spec.RadialLen())
	for _, p := range []rowsPath{rowsAVX2, rowsReference} {
		b.Run(p.name, func(b *testing.B) {
			onRowsPath(p, func() {
				for i := 0; i < b.N; i++ {
					spec.radialRows(env, cs, tape)
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(env.r)), "ns/pair")
		})
	}
}
