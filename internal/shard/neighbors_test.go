package shard

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mlmd/internal/md"
)

// refMinImage is the min-image formula itself, so the reference below owes
// nothing to the fast paths under test.
func refMinImage(d, l float64) float64 { return d - l*math.Round(d/l) }

// buildLinkedCell is the linked-cell NeighborList.Build this package shipped
// before the cell-sorted one, kept as the reference the new Build must match
// entry for entry: head/next chains over coarse cells, three min-images per
// candidate, every row sorted by global id through a comparator.
func buildLinkedCell(v *View, cutoff, skin float64) (start, adj []int32) {
	r := cutoff + skin
	ncx, ncy, ncz := cellCount(v.Lx, r), cellCount(v.Ly, r), cellCount(v.Lz, r)
	head := make([]int32, ncx*ncy*ncz)
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, v.NLoc)
	cellIdx := make([]int, v.NLoc)
	for i := 0; i < v.NLoc; i++ {
		cx := clampCell(int(v.X[3*i]/v.Lx*float64(ncx)), ncx)
		cy := clampCell(int(v.X[3*i+1]/v.Ly*float64(ncy)), ncy)
		cz := clampCell(int(v.X[3*i+2]/v.Lz*float64(ncz)), ncz)
		c := (cx*ncy+cy)*ncz + cz
		cellIdx[i] = c
		next[i] = head[c]
		head[c] = int32(i)
	}
	start = make([]int32, v.NOwn+1)
	for i := 0; i < v.NOwn; i++ {
		start[i] = int32(len(adj))
		c := cellIdx[i]
		cz, cy, cx := c%ncz, (c/ncz)%ncy, c/(ncz*ncy)
		for ox := -1; ox <= 1; ox++ {
			if ncx < 3 && ox > ncx-2 {
				continue
			}
			for oy := -1; oy <= 1; oy++ {
				if ncy < 3 && oy > ncy-2 {
					continue
				}
				for oz := -1; oz <= 1; oz++ {
					if ncz < 3 && oz > ncz-2 {
						continue
					}
					cc := (modCell(cx+ox, ncx)*ncy+modCell(cy+oy, ncy))*ncz + modCell(cz+oz, ncz)
					for j := head[cc]; j >= 0; j = next[j] {
						if int(j) == i {
							continue
						}
						dx := refMinImage(v.X[3*i]-v.X[3*j], v.Lx)
						dy := refMinImage(v.X[3*i+1]-v.X[3*j+1], v.Ly)
						dz := refMinImage(v.X[3*i+2]-v.X[3*j+2], v.Lz)
						if dx*dx+dy*dy+dz*dz <= r*r {
							adj = append(adj, j)
						}
					}
				}
			}
		}
		slices.SortFunc(adj[start[i]:], func(a, b int32) int { return cmp.Compare(v.ID[a], v.ID[b]) })
	}
	start[v.NOwn] = int32(len(adj))
	return start, adj
}

func modCell(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// assertSameList fails unless nl holds exactly the reference CSR for v, and
// its ghostInInterior flag says what the reference rows say.
func assertSameList(t *testing.T, name string, nl *NeighborList, v *View) {
	t.Helper()
	start, adj := buildLinkedCell(v, nl.Cutoff, nl.Skin)
	if !slices.Equal(nl.start, start) {
		t.Fatalf("%s: row offsets differ from the linked-cell reference", name)
	}
	if !slices.Equal(nl.adj, adj) {
		for i := 0; i < v.NOwn; i++ {
			if !slices.Equal(nl.Row(i), adj[start[i]:start[i+1]]) {
				t.Fatalf("%s: row %d = %v, linked-cell reference %v", name, i, nl.Row(i), adj[start[i]:start[i+1]])
			}
		}
	}
	want := false
	for _, j := range adj[:start[v.NInt]] {
		want = want || int(j) >= v.NOwn
	}
	if nl.ghostInInterior != want {
		t.Fatalf("%s: ghostInInterior = %v, reference rows say %v", name, nl.ghostInInterior, want)
	}
}

// randomView scatters n atoms uniformly in the box (a few pinned to the
// faces, where the cell index clamps), the first nOwn of them owned and the
// first nInt of those interior, under a random permutation of global ids
// drawn from a range twice as large.
func randomView(rng *rand.Rand, n, nOwn, nInt int, box [3]float64) *View {
	v := &View{
		NOwn: nOwn, NInt: nInt, NLoc: n, NGlobal: 2 * n,
		Lx: box[0], Ly: box[1], Lz: box[2],
		X: make([]float64, 3*n), ID: make([]int32, n),
	}
	for i, g := range rng.Perm(2 * n)[:n] {
		v.ID[i] = int32(g)
		for a := 0; a < 3; a++ {
			v.X[3*i+a] = rng.Float64() * box[a]
		}
	}
	for a := 0; a < 3; a++ {
		v.X[3*rng.Intn(n)+a] = 0
		v.X[3*rng.Intn(n)+a] = box[a] // what wrap1 returns for a tiny negative coordinate
	}
	return v
}

// TestBuildMatchesLinkedCellReference: on randomized views the cell-sorted
// Build reproduces the linked-cell reference exactly — offsets and entries —
// for cubic and non-cubic boxes, for axes of 1 and 2 cells (where the ±1
// neighbor offsets alias and both builds must visit each cell once), for 3
// and 4 cells (where the neighborhood wraps onto itself or nearly), and
// across rebuilds of one list with changing sizes.
func TestBuildMatchesLinkedCellReference(t *testing.T) {
	const cutoff, skin = 1.5, 0.3 // list radius 1.8
	boxes := [][3]float64{
		{12.6, 12.6, 12.6}, // 7 cells per axis
		{14.5, 9.1, 11.0},  // 8 x 5 x 6
		{3.5, 9.1, 9.1},    // 1 cell along x
		{9.1, 3.7, 9.1},    // 2 cells along y: pairs near half the box length
		{9.1, 9.1, 3.59},   // 1 cell along z, the fine-binned axis
		{9.1, 9.1, 5.3},    // 2 cells along z
		{5.5, 7.3, 5.6},    // 3 x 4 x 3
		{3.6, 3.6, 3.6},    // 2 x 2 x 2: every pair is a wrap candidate
	}
	rng := rand.New(rand.NewSource(13))
	nl := &NeighborList{Cutoff: cutoff, Skin: skin}
	for _, box := range boxes {
		for trial := 0; trial < 3; trial++ {
			n := 40 + rng.Intn(int(0.8*box[0]*box[1]*box[2]))
			nOwn := 1 + rng.Intn(n)
			v := randomView(rng, n, nOwn, rng.Intn(nOwn+1), box)
			nl.Build(v)
			assertSameList(t, fmt.Sprintf("box %v trial %d", box, trial), nl, v)
		}
	}
}

// TestBuildMatchesLinkedCellReferenceOnBalancedGrid: the same equality on
// what the engine really hands Build — owned atoms plus ghosts gathered over
// two partitioned axes, on a hot-spot density whose cut planes have moved.
func TestBuildMatchesLinkedCellReferenceOnBalancedGrid(t *testing.T) {
	base := hotSpotSystem(t, 7, 1e-3, 1)
	eng, err := NewEngine(Config{
		Grid: [3]int{2, 2, 1}, Cutoff: testCutoff, Skin: testSkin,
		NewFF:   LJFactory(testEps, testSigma),
		Balance: true, BalanceEvery: 1, BalanceCost: CostOwnedAtoms,
	}, base)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for round := 0; round < 4; round++ {
		if res := eng.Run(25, 2.0, 0, 0); res.Err != nil {
			t.Fatal(res.Err)
		}
		for _, rs := range eng.rs {
			if rs.nLoc == rs.nOwn {
				t.Fatalf("rank %d has no ghosts", rs.rank)
			}
			// The list in hand was built at the last rebuild; rebuild it on
			// the current view so list and coordinates belong together.
			rs.nl.Build(&rs.v)
			assertSameList(t, fmt.Sprintf("round %d rank %d", round, rs.rank), rs.nl, &rs.v)
		}
		for _, rs := range eng.rs {
			rs.needRebuild = true // the lists above are ahead of refX
		}
	}
	if rebalances, maxShift := eng.BalanceStats(); rebalances == 0 || maxShift <= 0 {
		t.Fatalf("cut planes never moved (%d rebalances, max shift %g)", rebalances, maxShift)
	}
}

// TestBuildBinsOnlyOccupiedCells: a rank whose atoms sit in one corner of a
// large box, wrapped around the x boundary like an edge rank's halo, bins
// them over the cells they occupy — the bin offsets do not grow with the
// global cell count — and still reproduces the reference list.
func TestBuildBinsOnlyOccupiedCells(t *testing.T) {
	const cutoff, skin = 1.5, 0.3 // list radius 1.8
	box := [3]float64{90, 90, 90} // 50 x 50 x 200 cells
	rng := rand.New(rand.NewSource(17))
	v := randomView(rng, 600, 400, 100, [3]float64{8, 9, 7})
	v.Lx, v.Ly, v.Lz = box[0], box[1], box[2]
	for i := 0; i < v.NLoc; i++ {
		v.X[3*i] = md.Wrap1(v.X[3*i]-4, box[0]) // x in [86, 90) and [0, 4]
		v.X[3*i+1] += 20
		v.X[3*i+2] += 33
	}
	nl := &NeighborList{Cutoff: cutoff, Skin: skin}
	nl.Build(v)
	assertSameList(t, "corner of a large box", nl, v)
	if nl.NumPairs() == 0 {
		t.Fatal("no pairs: the view is too sparse to test anything")
	}
	// At most 6 x 7 x 18 occupied cell indices per axis (extent / cell size,
	// plus the partial cells at either end).
	if got, most := len(nl.cellStart), 6*7*18+2; got > most {
		t.Errorf("%d bin offsets for a corner of the box, want at most %d (global cells: %d)", got, most, 50*50*200)
	}
}
