package md

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pruneKernelTests are the tests that reach the prune kernels. A plain run
// takes the widest tier the host has; TestPruneKernelTestsOn*Path re-run
// them on the tiers below it.
var pruneKernelTests = []struct {
	name string
	f    func(*testing.T)
}{
	{"PruneKernelMatchesReference", TestPruneKernelMatchesReference},
	{"PruneIndexOutOfRangePanics", TestPruneIndexOutOfRangePanics},
	{"PruneMatchesBuild", TestPruneMatchesBuild},
	{"PruneSteadyStateAllocs", TestPruneSteadyStateAllocs},
	{"PruneAfterReserveAllocs", TestPruneAfterReserveAllocs},
}

func runPruneKernelTests(t *testing.T, p ljPath) {
	if !p.available() {
		t.Skipf("no %s on this host", p.name)
	}
	onLJPath(p, func() {
		for _, kt := range pruneKernelTests {
			t.Run(kt.name, kt.f)
		}
	})
}

func TestPruneKernelTestsOnAVX2Path(t *testing.T)      { runPruneKernelTests(t, ljPathAVX2) }
func TestPruneKernelTestsOnReferencePath(t *testing.T) { runPruneKernelTests(t, ljPathReference) }

// samePrune fails unless row keeps exactly the candidates rowRef keeps, in
// the same order, for the row atom x[0:3].
func samePrune(t *testing.T, k *pruneKernel, x []float64, row []int32, what string) {
	t.Helper()
	got, want := make([]int32, len(row)), make([]int32, len(row))
	for c := range got {
		got[c], want[c] = -7, -7
	}
	n := k.row(got, x, row, x[0], x[1], x[2])
	m := k.rowRef(want, 0, x, row, x[0], x[1], x[2])
	if n != m || !slices.Equal(got[:n], want[:m]) {
		t.Fatalf("%s: kernel keeps %v, reference %v", what, got[:n], want[:m])
	}
}

// TestPruneKernelMatchesReference: on every row of ljTestRows — every row
// length 0–9 with every kind at every position, every accept pattern of a
// group at every group start, long random rows — the kernels keep what the
// reference keeps. The kinds cover both MinImage windows, the formula's
// lanes, NaN and ±Inf, and candidates exactly at the radius (accepted) and
// one step beyond it (rejected).
func TestPruneKernelMatchesReference(t *testing.T) {
	p := NewPeriod(ljTestBox)
	k := &pruneKernel{r2: 4, px: p, py: p, pz: p}
	for _, kinds := range ljTestRows() {
		x, row := ljTestRow(kinds)
		samePrune(t, k, x, row, "kinds "+ljKindNames(kinds))
	}
	// The exact radius, alone in a group of 8 and of 4.
	at := 0
	for i, kd := range ljKinds {
		if kd.name == "atRadius" {
			at = i
		}
	}
	x, row := ljTestRow([]int{1, 1, 1, at, 1, 1, 1, 1})
	out := make([]int32, len(row))
	if n := k.row(out, x, row, 5, 5, 5); n != 1 || out[0] != row[3] {
		t.Errorf("the candidate at the radius: kept %v, want [%d]", out[:n], row[3])
	}
}

// TestPruneIndexOutOfRangePanics: a row index outside the coordinates
// panics on every path instead of reading past x.
func TestPruneIndexOutOfRangePanics(t *testing.T) {
	p := NewPeriod(ljTestBox)
	k := &pruneKernel{r2: 4, px: p, py: p, pz: p}
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
				k.row(make([]int32, len(r)), x, r, 5, 5, 5)
			}()
		}
	}
}

// pruneFixture is a jittered fcc crystal with shuffled global ids, a third
// of its atoms candidates only.
func pruneFixture(t testing.TB) (sys *System, ids []int32, nOwn int) {
	sys, err := NewFCCSystem(6, 1.7, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	for i := range sys.X {
		sys.X[i] += 0.3 * (rng.Float64() - 0.5)
	}
	sys.Wrap()
	ids = make([]int32, sys.N)
	for i, g := range rng.Perm(sys.N) {
		ids[i] = int32(g)
	}
	return sys, ids, 2 * sys.N / 3
}

// TestPruneMatchesBuild: pruning a wide list to the radius of a narrow one
// gives the narrow build's rows — the same members in the same (gid)
// order — and a pair count, not the wide list's, as its capacity.
func TestPruneMatchesBuild(t *testing.T) {
	sys, ids, nOwn := pruneFixture(t)
	outer := &NeighborList{Cutoff: 2, Skin: 0.9}
	outer.BuildOwned(sys, ids, nOwn)
	for _, skin := range []float64{0, 0.3, 0.9} {
		want := &NeighborList{Cutoff: 2, Skin: skin}
		want.BuildOwned(sys, ids, nOwn)
		got := &NeighborList{Cutoff: 2, Skin: skin}
		got.Prune(outer, sys, nOwn)
		for i := 0; i < nOwn; i++ {
			if !slices.Equal(got.Row(i), want.Row(i)) {
				t.Fatalf("skin %g: row %d pruned %v, built %v", skin, i, got.Row(i), want.Row(i))
			}
		}
		if got.NumPairs() != want.NumPairs() {
			t.Fatalf("skin %g: %d pairs pruned, %d built", skin, got.NumPairs(), want.NumPairs())
		}
		if skin < outer.Skin && got.PairCap() >= outer.NumPairs() {
			t.Errorf("skin %g: PairCap %d of %d pairs reflects the outer list's %d", skin, got.PairCap(), got.NumPairs(), outer.NumPairs())
		}
	}
}

// TestPruneSteadyStateAllocs: a prune whose list is no longer than an
// earlier one allocates nothing, across rows longer than a kernel group.
func TestPruneSteadyStateAllocs(t *testing.T) {
	sys, ids, nOwn := pruneFixture(t)
	outer := &NeighborList{Cutoff: 2, Skin: 0.9}
	outer.BuildOwned(sys, ids, nOwn)
	inner := &NeighborList{Cutoff: 2, Skin: 0.3}
	inner.Prune(outer, sys, nOwn)
	if n := testing.AllocsPerRun(20, func() { inner.Prune(outer, sys, nOwn) }); n != 0 {
		t.Errorf("%v allocs per prune, want 0", n)
	}
}

// FuzzPruneRows checks the kernels' kept set against the reference on every
// path, on rows of up to 255 random candidates: coordinates spread around
// the row atom over a random box and radius, a few of them NaN or ±Inf.
func FuzzPruneRows(f *testing.F) {
	f.Add(int64(1), uint8(42), 2.3, 18.7, 0.5, 2.0)
	f.Add(int64(2), uint8(9), 30.0, 3.6, 0.99, 1.0)
	f.Add(int64(3), uint8(130), 1.0, 1e-3, 0.0, 5e-4)
	f.Add(int64(4), uint8(7), 1e300, 5.0, 0.25, 2.5)
	f.Add(int64(5), uint8(200), 4.0, 8.0, 0.5, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, spread, box, pos, radius float64) {
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
		k := &pruneKernel{r2: radius * radius, px: p, py: p, pz: p}
		for _, path := range ljPaths {
			onLJPath(path, func() { samePrune(t, k, x, row, path.name) })
		}
	})
}

// BenchmarkPrune prunes md.lj's crystal from a 0.75 buffer to a 0.3 one,
// per tier; ns/cand is per outer candidate.
func BenchmarkPrune(b *testing.B) {
	sys, err := NewFCCSystem(11, 1.7, 50)
	if err != nil {
		b.Fatal(err)
	}
	outer := &NeighborList{Cutoff: 2, Skin: 0.75}
	outer.BuildOwned(sys, nil, sys.N)
	inner := &NeighborList{Cutoff: 2, Skin: 0.3}
	for _, p := range ljPaths {
		if !p.available() {
			continue
		}
		b.Run(p.name, func(b *testing.B) {
			onLJPath(p, func() {
				for i := 0; i < b.N; i++ {
					inner.Prune(outer, sys, sys.N)
				}
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(outer.NumPairs()), "ns/cand")
		})
	}
}

// TestPruneAfterReserveAllocs: a prune whose list grows past the last one,
// but not past a Reserve made before it, keeps the reserved buffer.
func TestPruneAfterReserveAllocs(t *testing.T) {
	sys, ids, nOwn := pruneFixture(t)
	outer := &NeighborList{Cutoff: 2, Skin: 0.9}
	outer.BuildOwned(sys, ids, nOwn)
	want := &NeighborList{Cutoff: 2, Skin: 0.3}
	want.BuildOwned(sys, ids, nOwn)
	inner := &NeighborList{Cutoff: 2, Skin: 0}
	inner.Prune(outer, sys, nOwn)
	if inner.NumPairs() >= want.NumPairs() {
		t.Fatalf("the skin-0 list holds %d pairs, not fewer than the %d of skin 0.3", inner.NumPairs(), want.NumPairs())
	}
	inner.Skin = 0.3
	inner.Reserve(want.NumPairs())
	c := inner.PairCap()
	inner.Prune(outer, sys, nOwn)
	if inner.PairCap() != c || inner.NumPairs() != want.NumPairs() {
		t.Errorf("capacity %d → %d over a prune to %d pairs (built: %d)", c, inner.PairCap(), inner.NumPairs(), want.NumPairs())
	}
}
