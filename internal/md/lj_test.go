package md

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"math/rand"
	"testing"
)

var ljGoldenTable = crc64.MakeTable(crc64.ECMA)

// crcFloats folds the Float64bits of xs, little-endian, into crc.
func crcFloats(crc uint64, xs ...float64) uint64 {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		crc = crc64.Update(crc, ljGoldenTable, b[:])
	}
	return crc
}

// ljCase is one system under md.lj's pair field (ε 0.01, σ 1, cutoff 2.0,
// skin 0.3).
type ljCase struct {
	name string
	sys  *System
	lj   *LennardJones
}

// ljGoldenCases returns the systems TestLJForcesGolden pins:
//
//   - fcc5324, md.lj's shape (11³ fcc cells at a = 1.7), every coordinate
//     moved by up to ±0.05 and wrapped, so the atoms of the lattice planes at
//     0 straddle every face and their pairs take the wrap path of MinImage;
//   - small, 48 random atoms in a 3.6 box (list radius 2.3 > 0.49·l, so
//     pairs fall between the near and wrap windows), a quarter of them moved
//     out of the box by ±l or 2l: both drive minImageFormula;
//   - lattice, a perfect 6³-cell fcc lattice, whose exact zero separations
//     give −0 force terms (fmag < 0 times dx = +0) among accepted pairs.
func ljGoldenCases(tb testing.TB) []ljCase {
	tb.Helper()
	rng := rand.New(rand.NewSource(35))
	fcc, err := NewFCCSystem(11, 1.7, 50)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range fcc.X {
		fcc.X[i] += 0.05 * (2*rng.Float64() - 1)
	}
	fcc.Wrap()

	const l = 3.6
	small, err := NewSystem(48, l, l, l)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range small.X {
		small.X[i] = rng.Float64() * l
	}
	for i := 0; i < small.N; i += 4 {
		small.X[3*i+i%3] += []float64{l, -l, 2 * l}[i/4%3]
	}

	lattice, err := NewFCCSystem(6, 1.7, 50)
	if err != nil {
		tb.Fatal(err)
	}

	var cases []ljCase
	for _, c := range []struct {
		name string
		sys  *System
	}{{"fcc5324", fcc}, {"small", small}, {"lattice", lattice}} {
		nl, err := NewNeighborList(2.0, 0.3)
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, ljCase{c.name, c.sys, &LennardJones{Epsilon: 0.01, Sigma: 1, NL: nl}})
	}
	return cases
}

// TestLJForcesGolden pins the bits of the LJ forces and energy: the CRC64 of
// the Float64bits of F, then PE, for each of ljGoldenCases. A change that
// moves one of these moves the md.lj trajectory.
func TestLJForcesGolden(t *testing.T) {
	want := map[string]uint64{
		"fcc5324": 0x892b2abb08a481a4,
		"small":   0x677ebc0b10face97,
		"lattice": 0x7d3d8772dd6c5bd4,
	}
	for _, c := range ljGoldenCases(t) {
		pe := c.lj.ComputeForces(c.sys)
		if got := crcFloats(crcFloats(0, c.sys.F...), pe); got != want[c.name] {
			t.Errorf("%s: CRC64 of F, PE = %#016x, want %#016x", c.name, got, want[c.name])
		}
	}
}

// An ljPath is one setting of the dispatch variables: the AVX-512 kernel
// (the default on a host that has it), the AVX2 kernel, or the reference.
type ljPath struct {
	name         string
	avx2, avx512 bool
}

var (
	ljPathAVX512    = ljPath{"avx512", true, true}
	ljPathAVX2      = ljPath{"avx2", true, false}
	ljPathReference = ljPath{"reference", false, false}
	ljPaths         = []ljPath{ljPathAVX512, ljPathAVX2, ljPathReference}
)

// available reports whether this host runs p's tier.
func (p ljPath) available() bool {
	return (useAVX2 || !p.avx2) && (useAVX512 || !p.avx512)
}

// onLJPath runs f with the dispatch variables set to p. A tier the host
// lacks stays off, so there f runs on the next tier down.
func onLJPath(p ljPath, f func()) {
	prev2, prev512 := useAVX2, useAVX512
	useAVX2, useAVX512 = prev2 && p.avx2, prev512 && p.avx512
	defer func() { useAVX2, useAVX512 = prev2, prev512 }()
	f()
}

// ljKernelTests are the tests that reach the LJ terms kernels. A plain run
// takes the widest tier the host has; the TestLJKernelTestsOn*Path tests
// re-run them on the tiers below it.
var ljKernelTests = []struct {
	name string
	f    func(*testing.T)
}{
	{"LJForcesGolden", TestLJForcesGolden},
	{"LJKernelMatchesReference", TestLJKernelMatchesReference},
	{"LJRowNegativeZeroThenRejected", TestLJRowNegativeZeroThenRejected},
	{"LJTermsIndexOutOfRangePanics", TestLJTermsIndexOutOfRangePanics},
	{"LJForcesSteadyStateAllocs", TestLJForcesSteadyStateAllocs},
	{"ParallelForcesBitIdentical", TestParallelForcesBitIdentical},
	{"NewtonThirdLaw", TestNewtonThirdLaw},
	{"ForcesMatchEnergyGradient", TestForcesMatchEnergyGradient},
}

func runLJKernelTests(t *testing.T, p ljPath) {
	if !p.available() {
		t.Skipf("no %s on this host", p.name)
	}
	onLJPath(p, func() {
		for _, kt := range ljKernelTests {
			t.Run(kt.name, kt.f)
		}
	})
}

func TestLJKernelTestsOnAVX2Path(t *testing.T)      { runLJKernelTests(t, ljPathAVX2) }
func TestLJKernelTestsOnReferencePath(t *testing.T) { runLJKernelTests(t, ljPathReference) }

// The candidate kinds of the kernel tests, as separations d = (xi, yi, zi) −
// x_j in a box of length ljTestBox (cutoff 2, so rc2 = 4): every value is a
// multiple of 1/64, so x_j = xi − d and xi − x_j are exact.
const ljTestBox = 10

var ljKinds = []struct {
	name string
	d    [3]float64
}{
	{"near", [3]float64{1.125, 0.25, -0.375}},
	{"nearOut", [3]float64{1.5, 1.5, 0.5}},   // r > cutoff
	{"zero", [3]float64{0, 0, 0}},            // r2 == 0
	{"negZero", [3]float64{1.25, 0, 0}},      // fmag < 0: fy = fz = −0
	{"wrapPlus", [3]float64{8.75, 0.5, 0}},   // d − l = −1.25
	{"wrapMinus", [3]float64{0.5, -9, 0.25}}, // d + l = 1
	{"wrapOut", [3]float64{-7, 8, 0}},        // wrapped but r > cutoff
	{"between", [3]float64{0.25, 5, 0.5}},    // 0.49·l ≤ |d| ≤ 0.51·l: the formula
	{"far", [3]float64{0.5, 0.25, 22.5}},     // |d| ≥ 1.49·l: the formula
	{"nan", [3]float64{math.NaN(), 0.5, 0}},
	{"inf", [3]float64{0.5, math.Inf(1), 0}},
	{"negInf", [3]float64{0.5, 0, math.Inf(-1)}},
	{"atRadius", [3]float64{2, 0, 0}},       // r2 == rc2 exactly: accepted
	{"atRadiusZ", [3]float64{0, 0, -2}},     // the same along −z
	{"justOut", [3]float64{2, 0.015625, 0}}, // r2 = 4 + 2⁻¹²: rejected
	{"atRadiusWrap", [3]float64{0, 8, 0}},   // d − l = −2 exactly
}

// ljTestRow builds the coordinates and the row of the candidates of kinds
// (indices into ljKinds) around the row atom at (5, 5, 5), the atoms in
// reverse order of the row so that no index is its position.
func ljTestRow(kinds []int) (x []float64, row []int32) {
	n := len(kinds)
	x = make([]float64, 3*(n+1))
	row = make([]int32, n)
	for c, kd := range kinds {
		j := n - c
		row[c] = int32(j)
		for a := 0; a < 3; a++ {
			x[3*j+a] = 5 - ljKinds[kd].d[a]
		}
	}
	x[0], x[1], x[2] = 5, 5, 5
	return x, row
}

func ljTestKernel() *ljKernel {
	p := NewPeriod(ljTestBox)
	return &ljKernel{rc2: 4, sig2: 1, eps4: 4 * 0.01, eps24: 24 * 0.01, px: p, py: p, pz: p}
}

// ljTestRows are the kernel tests' rows: every row length 0–9 with every
// kind at every position among accepted and rejected fillers; every
// accept/reject pattern of a group of 4 at every group start of rows up to
// 9 long; and rows of random kinds up to 2·ljSeg + 5 long.
func ljTestRows() [][]int {
	near, out := 0, 1
	var rows [][]int
	for n := 0; n <= 9; n++ {
		for pos := 0; pos < n; pos++ {
			for kd := range ljKinds {
				r := make([]int, n)
				for c := range r {
					r[c] = []int{near, out}[c%2]
				}
				r[pos] = kd
				rows = append(rows, r)
			}
		}
		for g := 0; g+4 <= n; g++ {
			for m := 0; m < 16; m++ {
				r := make([]int, n)
				for c := range r {
					r[c] = out
					if c >= g && c < g+4 && m>>(c-g)&1 != 0 {
						r[c] = near
					}
				}
				rows = append(rows, r)
			}
		}
	}
	rng := rand.New(rand.NewSource(35))
	for k := 0; k < 200; k++ {
		r := make([]int, rng.Intn(2*ljSeg+6))
		for c := range r {
			r[c] = rng.Intn(len(ljKinds))
			if rng.Intn(4) != 0 { // mostly in-window kinds, so groups run in the kernel
				r[c] = rng.Intn(7)
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// sameBits reports whether a and b are the same float64, NaN payloads
// excepted: Go leaves which operand's NaN an add propagates to the compiler.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// sameTerms fails unless every slot terms writes for the candidates seg of
// the row atom x[0:3] holds pair's four terms (sameBits), +0 for a rejected
// candidate, whichever path took its group.
func sameTerms(t *testing.T, k *ljKernel, x []float64, seg []int32, what string) {
	t.Helper()
	var s ljScratch
	for c := range s.x {
		s.x[c], s.y[c], s.z[c], s.u[c] = math.NaN(), math.NaN(), math.NaN(), math.NaN()
	}
	k.terms(&s, x, seg, x[0], x[1], x[2])
	for c, j := range seg {
		tx, ty, tz, hu, _ := k.pair(x[0]-x[3*j], x[1]-x[3*j+1], x[2]-x[3*j+2])
		want, got := [4]float64{tx, ty, tz, hu}, [4]float64{s.x[c], s.y[c], s.z[c], s.u[c]}
		for a := range want {
			if !sameBits(got[a], want[a]) {
				t.Fatalf("%s: slot %d term %d: %v (%#x), pair %v (%#x)",
					what, c, a, got[a], math.Float64bits(got[a]), want[a], math.Float64bits(want[a]))
			}
		}
	}
}

// sameRow fails unless rowTerms returns row's bits (sameBits) for the row
// atom x[0:3], from a zero and a nonzero starting energy.
func sameRow(t *testing.T, k *ljKernel, x []float64, row []int32, what string) {
	t.Helper()
	var s ljScratch
	for _, pe0 := range []float64{0, 0.125} {
		f0, f1, f2, pe := k.row(x, row, x[0], x[1], x[2], pe0)
		g0, g1, g2, gpe := k.rowTerms(&s, x, row, x[0], x[1], x[2], pe0)
		want, got := [4]float64{f0, f1, f2, pe}, [4]float64{g0, g1, g2, gpe}
		for a := range want {
			if !sameBits(got[a], want[a]) {
				t.Fatalf("%s, pe0 %v: component %d rowTerms %v (%#x), row %v (%#x)",
					what, pe0, a, got[a], math.Float64bits(got[a]), want[a], math.Float64bits(want[a]))
			}
		}
	}
}

// TestLJKernelMatchesReference: on every row of ljTestRows, each slot of
// terms is pair's, and rowTerms — terms into scratch, +0 for a rejected
// candidate, then the ascending sums — is row bit for bit.
func TestLJKernelMatchesReference(t *testing.T) {
	k := ljTestKernel()
	for _, kinds := range ljTestRows() {
		x, row := ljTestRow(kinds)
		what := "kinds " + ljKindNames(kinds)
		for c := 0; c < len(row); c += ljSeg {
			sameTerms(t, k, x, row[c:min(c+ljSeg, len(row))], what)
		}
		sameRow(t, k, x, row, what)
	}
}

func ljKindNames(kinds []int) string {
	s := "["
	for c, kd := range kinds {
		if c > 0 {
			s += " "
		}
		s += ljKinds[kd].name
	}
	return s + "]"
}

// TestLJRowNegativeZeroThenRejected is the +0 argument at its edge: the first
// accepted terms of the row are −0 (fy, fz of negZero), so each sum is
// +0 + (−0) = +0, and the rejected candidates after it then add +0 on the
// vector path where row skips them. Both must leave +0.
func TestLJRowNegativeZeroThenRejected(t *testing.T) {
	k := ljTestKernel()
	nz, out, zero := 3, 1, 2
	x, row := ljTestRow([]int{nz, out, out, zero, out, out, out, out})
	if _, ty, _, _, ok := k.pair(1.25, 0, 0); !ok || math.Float64bits(ty) != 1<<63 {
		t.Fatalf("negZero: fy term %v (accepted %v), want −0", ty, ok)
	}
	sameRow(t, k, x, row, "negZero then rejected")
	var s ljScratch
	if _, fy, fz, _ := k.rowTerms(&s, x, row, 5, 5, 5, 0); math.Float64bits(fy) != 0 || math.Float64bits(fz) != 0 {
		t.Errorf("fy, fz = %v, %v; want +0, +0", fy, fz)
	}
}

// TestLJTermsIndexOutOfRangePanics: a row index outside the coordinates
// panics on either path (the kernel leaves its group to pair, whose index
// check panics) instead of reading past x.
func TestLJTermsIndexOutOfRangePanics(t *testing.T) {
	k := ljTestKernel()
	x, row := ljTestRow([]int{0, 0, 0, 0, 0, 0, 0, 0})
	for _, bad := range []int32{int32(len(x) / 3), -1} {
		for c := range row {
			r := append([]int32(nil), row...)
			r[c] = bad
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("index %d at slot %d: no panic", bad, c)
					}
				}()
				var s ljScratch
				k.terms(&s, x, r, 5, 5, 5)
			}()
		}
	}
}

// FuzzLJRow checks rowTerms against row, and terms against pair, by
// Float64bits (sameBits) on every path, on rows of up to 255 random candidates: coordinates spread
// around the row atom over a random box, a few of them NaN or ±Inf.
func FuzzLJRow(f *testing.F) {
	f.Add(int64(1), uint8(42), 2.3, 18.7, 0.5)
	f.Add(int64(2), uint8(9), 30.0, 3.6, 0.99)
	f.Add(int64(3), uint8(130), 1.0, 1e-3, 0.0)
	f.Add(int64(4), uint8(7), 1e300, 5.0, 0.25)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, spread, box, pos float64) {
		if !(box > 0) || math.IsInf(box, 0) || math.IsNaN(spread) || math.IsNaN(pos) {
			t.Skip("not a box")
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 3*(int(n)+1))
		for i := range x {
			x[i] = box*pos + spread*(2*rng.Float64()-1)
			switch rng.Intn(64) {
			case 0:
				x[i] = math.NaN()
			case 1:
				x[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		row := make([]int32, n)
		for c := range row {
			row[c] = int32(1 + rng.Intn(int(n)))
		}
		p := NewPeriod(box)
		k := &ljKernel{rc2: 4, sig2: 1, eps4: 0.04, eps24: 0.24, px: p, py: p, pz: p}
		for _, path := range ljPaths {
			onLJPath(path, func() {
				sameTerms(t, k, x, row[:min(len(row), ljSeg)], path.name)
				sameRow(t, k, x, row, path.name)
			})
		}
	})
}

// TestLJForcesSteadyStateAllocs: evaluating the forces allocates nothing in
// steady state, across rebuilds that make the longest row longer: each op
// moves the atoms of a perfect lattice off their sites and back, and the
// displaced state packs 32 atoms into a cube of side 0.75, which lengthens its rows
// past ljSeg (so rowTerms takes more than one pass) and the list past its
// perfect-lattice size.
func TestLJForcesSteadyStateAllocs(t *testing.T) {
	sys, err := NewFCCSystem(6, 1.7, 50)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := NewNeighborList(2.0, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	lj := &LennardJones{Epsilon: 0.01, Sigma: 1, NL: nl}
	perfect := append([]float64(nil), sys.X...)
	packed := append([]float64(nil), sys.X...)
	for i := 0; i < 32; i++ { // a dense cluster: its rows are long
		for a := 0; a < 3; a++ {
			packed[3*(i*17)+a] = 4 + 0.25*float64(i>>(2*a)&3) + 0.0625*float64(a)
		}
	}
	lj.ComputeForces(sys)
	short := maxRow(nl, sys.N)
	copy(sys.X, packed)
	lj.ComputeForces(sys)
	if long := maxRow(nl, sys.N); long <= short || long <= ljSeg {
		t.Fatalf("longest row %d after the move, %d before: the test needs it longer, and longer than ljSeg %d", long, short, ljSeg)
	}
	allocs := testing.AllocsPerRun(20, func() {
		copy(sys.X, perfect)
		lj.ComputeForces(sys)
		copy(sys.X, packed)
		lj.ComputeForces(sys)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per op, want 0", allocs)
	}
}

func maxRow(nl *NeighborList, n int) int {
	m := 0
	for i := 0; i < n; i++ {
		m = max(m, len(nl.Row(i)))
	}
	return m
}
