package md

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// buildLinkedCell is the linked-cell build the cell-sorted NeighborList
// replaced, kept as the reference it must match entry for entry: head/next
// chains over coarse cells, three min-images per candidate by the formula
// itself, every row sorted by global id through a comparator. Rows are the
// first nOwn atoms; ids maps each atom to its global id.
func buildLinkedCell(sys *System, ids []int32, nOwn int, cutoff, skin float64) (start, adj []int32) {
	r := cutoff + skin
	ncx, ncy, ncz := cellCount(sys.Lx, r), cellCount(sys.Ly, r), cellCount(sys.Lz, r)
	head := make([]int32, ncx*ncy*ncz)
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, sys.N)
	cellIdx := make([]int, sys.N)
	for i := 0; i < sys.N; i++ {
		cx := axisCell(sys.X[3*i], sys.Lx, ncx)
		cy := axisCell(sys.X[3*i+1], sys.Ly, ncy)
		cz := axisCell(sys.X[3*i+2], sys.Lz, ncz)
		c := (cx*ncy+cy)*ncz + cz
		cellIdx[i] = c
		next[i] = head[c]
		head[c] = int32(i)
	}
	start = make([]int32, nOwn+1)
	for i := 0; i < nOwn; i++ {
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
						dx := minImageFormula(sys.X[3*i]-sys.X[3*j], sys.Lx)
						dy := minImageFormula(sys.X[3*i+1]-sys.X[3*j+1], sys.Ly)
						dz := minImageFormula(sys.X[3*i+2]-sys.X[3*j+2], sys.Lz)
						if dx*dx+dy*dy+dz*dz <= r*r {
							adj = append(adj, j)
						}
					}
				}
			}
		}
		slices.SortFunc(adj[start[i]:], func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
	}
	start[nOwn] = int32(len(adj))
	return start, adj
}

func modCell(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// assertSameList fails unless nl holds exactly the reference CSR.
func assertSameList(t *testing.T, name string, nl *NeighborList, sys *System, ids []int32, nOwn int) {
	t.Helper()
	start, adj := buildLinkedCell(sys, ids, nOwn, nl.Cutoff, nl.Skin)
	if !slices.Equal(nl.start, start) {
		t.Fatalf("%s: row offsets differ from the linked-cell reference", name)
	}
	if !slices.Equal(nl.adj, adj) {
		for i := 0; i < nOwn; i++ {
			if !slices.Equal(nl.Row(i), adj[start[i]:start[i+1]]) {
				t.Fatalf("%s: row %d = %v, linked-cell reference %v", name, i, nl.Row(i), adj[start[i]:start[i+1]])
			}
		}
	}
}

// randomAtoms scatters n atoms uniformly in the box (a few pinned to the
// faces, where the cell index clamps) under a random permutation of global
// ids drawn from a range twice as large.
func randomAtoms(rng *rand.Rand, n int, box [3]float64) (*System, []int32) {
	sys := &System{N: n, Lx: box[0], Ly: box[1], Lz: box[2], X: make([]float64, 3*n)}
	ids := make([]int32, n)
	for i, g := range rng.Perm(2 * n)[:n] {
		ids[i] = int32(g)
		for a := 0; a < 3; a++ {
			sys.X[3*i+a] = rng.Float64() * box[a]
		}
	}
	for a := 0; a < 3; a++ {
		sys.X[3*rng.Intn(n)+a] = 0
		sys.X[3*rng.Intn(n)+a] = box[a] // what wrap1 returns for a tiny negative coordinate
	}
	return sys, ids
}

// TestBuildMatchesLinkedCellReference: on randomized atom sets the
// cell-sorted build reproduces the linked-cell reference exactly — offsets
// and entries — for cubic and non-cubic boxes, for axes of 1 and 2 cells
// (where the ±1 neighbor offsets alias and both builds must visit each cell
// once), for 3 and 4 cells (where the neighborhood wraps onto itself or
// nearly), for a row prefix and for the unsharded Build (ids = index), and
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
			sys, ids := randomAtoms(rng, n, box)
			nl.BuildOwned(sys, ids, nOwn)
			assertSameList(t, fmt.Sprintf("box %v trial %d", box, trial), nl, sys, ids, nOwn)
		}
		sys, _ := randomAtoms(rng, 60, box)
		identity := make([]int32, sys.N)
		for i := range identity {
			identity[i] = int32(i)
		}
		nl.Build(sys)
		assertSameList(t, fmt.Sprintf("box %v unsharded", box), nl, sys, identity, sys.N)
	}
}

// TestBuildBinsOnlyOccupiedCells: atoms sitting in one corner of a large
// box, wrapped around the x boundary like an edge rank's halo, are binned
// over the cells they occupy — the bin offsets do not grow with the global
// cell count — and still reproduce the reference list.
func TestBuildBinsOnlyOccupiedCells(t *testing.T) {
	const cutoff, skin = 1.5, 0.3 // list radius 1.8
	box := [3]float64{90, 90, 90} // 50 x 50 x 200 cells
	rng := rand.New(rand.NewSource(17))
	sys, ids := randomAtoms(rng, 600, [3]float64{8, 9, 7})
	sys.Lx, sys.Ly, sys.Lz = box[0], box[1], box[2]
	for i := 0; i < sys.N; i++ {
		sys.X[3*i] = Wrap1(sys.X[3*i]-4, box[0]) // x in [86, 90) and [0, 4]
		sys.X[3*i+1] += 20
		sys.X[3*i+2] += 33
	}
	nl := &NeighborList{Cutoff: cutoff, Skin: skin}
	nl.BuildOwned(sys, ids, 400)
	assertSameList(t, "corner of a large box", nl, sys, ids, 400)
	if nl.NumPairs() == 0 {
		t.Fatal("no pairs: the atoms are too sparse to test anything")
	}
	// At most 6 x 7 x 18 occupied cell indices per axis (extent / cell size,
	// plus the partial cells at either end).
	if got, most := len(nl.cellStart), 6*7*18+2; got > most {
		t.Errorf("%d bin offsets for a corner of the box, want at most %d (global cells: %d)", got, most, 50*50*200)
	}
}
