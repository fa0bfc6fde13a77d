package md

import (
	"cmp"
	"fmt"
	"math"
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
// faces, at exactly 0 and exactly l) under a random permutation of global
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
// across rebuilds of one list with changing sizes. Each box names the sweep
// it takes: the shifted one needs 5 list radii along x and y and 3 along z
// (shiftGuard), so the boxes just above and just below those lengths on each
// axis take one path each, with atoms at exactly 0 (randomAtoms). Every atom
// set is built twice: as drawn, with atoms at exactly l too, which sends
// every box to the per-candidate minimum image, and with those folded to 0,
// the same configuration. An atom a hair outside [0, l] sends a box that
// passes the guard to the per-candidate minimum image.
func TestBuildMatchesLinkedCellReference(t *testing.T) {
	const cutoff, skin = 1.5, 0.3 // list radius 1.8
	cases := []struct {
		box     [3]float64
		shifted bool
	}{
		{[3]float64{12.6, 12.6, 12.6}, true}, // 7 cells per axis
		{[3]float64{14.5, 9.1, 11.0}, true},  // 8 x 5 x 6
		{[3]float64{3.5, 9.1, 9.1}, false},   // 1 cell along x
		{[3]float64{9.1, 3.7, 9.1}, false},   // 2 cells along y: pairs near half the box length
		{[3]float64{9.1, 9.1, 3.59}, false},  // 1 cell along z, the fine-binned axis
		{[3]float64{9.1, 9.1, 5.3}, false},   // 2 cells along z
		{[3]float64{5.5, 7.3, 5.6}, false},   // 3 x 4 x 3
		{[3]float64{3.6, 3.6, 3.6}, false},   // 2 x 2 x 2: every pair is a wrap candidate
		{[3]float64{9.05, 12.6, 12.6}, true}, // 5 cells along x: just above the guard
		{[3]float64{8.95, 12.6, 12.6}, false},
		{[3]float64{12.6, 9.05, 12.6}, true}, // the same along y
		{[3]float64{12.6, 8.95, 12.6}, false},
		{[3]float64{12.6, 12.6, 5.45}, true}, // 12 fine cells along z: just above
		{[3]float64{12.6, 12.6, 5.35}, false},
	}
	rng := rand.New(rand.NewSource(13))
	nl := &NeighborList{Cutoff: cutoff, Skin: skin}
	check := func(name string, sys *System, ids []int32, nOwn int, shifted bool) {
		t.Helper()
		if ids == nil {
			nl.Build(sys)
			ids = make([]int32, sys.N)
			for i := range ids {
				ids[i] = int32(i)
			}
		} else {
			nl.BuildOwned(sys, ids, nOwn)
		}
		if nl.shifted != shifted {
			t.Fatalf("%s: shifted sweep = %v, want %v", name, nl.shifted, shifted)
		}
		assertSameList(t, name, nl, sys, ids, nOwn)
	}
	for _, c := range cases {
		box := c.box
		for trial := 0; trial < 3; trial++ {
			n := 40 + rng.Intn(int(0.8*box[0]*box[1]*box[2]))
			nOwn := 1 + rng.Intn(n)
			sys, ids := randomAtoms(rng, n, box)
			check(fmt.Sprintf("box %v trial %d", box, trial), sys, ids, nOwn, false)
			foldTop(sys)
			check(fmt.Sprintf("box %v trial %d folded", box, trial), sys, ids, nOwn, c.shifted)
		}
		sys, _ := randomAtoms(rng, 60, box)
		check(fmt.Sprintf("box %v unsharded", box), sys, nil, sys.N, false)
		foldTop(sys)
		check(fmt.Sprintf("box %v unsharded folded", box), sys, nil, sys.N, c.shifted)
		a := rng.Intn(3)
		sys.X[3*rng.Intn(sys.N)+a] = -1e-12
		sys.X[3*rng.Intn(sys.N)+a] = math.Nextafter(box[a], math.Inf(1))
		check(fmt.Sprintf("box %v atoms outside along axis %d", box, a), sys, nil, sys.N, false)
	}
}

// TestBuildPairsAtTheCutoff: pairs whose distance along one axis lies
// within a few ulps of the list radius, across the periodic boundary and
// inside the box, one pair per column of a 6 x 6 grid of columns 2.08 apart,
// so the accept test is decided by the last bit of the displacement. Box
// and radius (1.75) have short mantissas, and half the pairs sit on a 1/64
// grid, so some distances equal the radius exactly. The shifted sweep must
// round (xi−xj)−s exactly as the minimum image does.
func TestBuildPairsAtTheCutoff(t *testing.T) {
	const cutoff, skin, l = 1.5, 0.25, 12.5
	r := cutoff + skin
	rng := rand.New(rand.NewSource(23))
	nl := &NeighborList{Cutoff: cutoff, Skin: skin}
	ids := make([]int32, 72)
	for i := range ids {
		ids[i] = int32(i)
	}
	for a := 0; a < 3; a++ {
		for trial := 0; trial < 40; trial++ {
			sys := &System{N: 72, Lx: l, Ly: l, Lz: l, X: make([]float64, 3*72)}
			for c := 0; c < 36; c++ {
				i, j := 2*c, 2*c+1
				b0, b1 := (a+1)%3, (a+2)%3
				g0, g1 := (float64(c%6)+0.5)*l/6, (float64(c/6)+0.5)*l/6
				sys.X[3*i+b0], sys.X[3*j+b0] = g0, g0
				sys.X[3*i+b1], sys.X[3*j+b1] = g1, g1
				p := l - (0.1+0.8*rng.Float64())*r // the partner lands in [0.1r, 0.9r]
				if c%2 == 1 {                      // the same distance inside the box
					p = 2 + 5*rng.Float64()
				}
				if c%4 < 2 {
					p = math.Round(64*p) / 64
				}
				q := p + r
				if c%2 == 0 {
					q -= l
				}
				toward := math.Inf(2*rng.Intn(2) - 1)
				for k := rng.Intn(4); k > 0; k-- {
					q = math.Nextafter(q, toward)
				}
				sys.X[3*i+a], sys.X[3*j+a] = p, q
			}
			nl.Build(sys)
			if !nl.shifted {
				t.Fatal("the box should take the shifted sweep")
			}
			assertSameList(t, fmt.Sprintf("axis %d trial %d", a, trial), nl, sys, ids, sys.N)
		}
	}
}

// TestBuildPairsAcrossTheFace: an atom at exactly l (what wrap1 returns for
// a tiny negative coordinate) or a hair below 0 lies, around the ring, next
// to the face opposite its coordinate: l is the image of 0, and −1e-12 that
// of a point just below l. Its partners across that face, at the list
// radius to a few ulps either way, must be in its row and it in theirs. The rows are checked against the minimum image of every pair,
// not against the linked-cell reference, which bins by the same axisCell.
// Each box length along the tested axis is a whole number of list radii,
// so the partner at exactly the radius lies on a cell face.
func TestBuildPairsAcrossTheFace(t *testing.T) {
	const cutoff, skin = 1.5, 0.3
	r := cutoff + skin
	nl := &NeighborList{Cutoff: cutoff, Skin: skin}
	for a := 0; a < 3; a++ {
		for _, l := range []float64{5.4, 12.6} { // 3 and 7 list radii
			box := [3]float64{12.6, 12.6, 12.6}
			box[a] = l
			for _, f := range []float64{l, -1e-12} {
				x := []float64{1, 1, 1}
				x[a] = f
				for _, d := range []float64{r, -r} {
					p := Wrap1(f+d, l)
					for k := -3; k <= 3; k++ {
						q := p
						for i := 0; i < k; i++ {
							q = math.Nextafter(q, math.Inf(1))
						}
						for i := 0; i > k; i-- {
							q = math.Nextafter(q, math.Inf(-1))
						}
						y := []float64{1, 1, 1}
						y[a] = q
						x = append(x, y...)
					}
				}
				sys := &System{N: len(x) / 3, Lx: box[0], Ly: box[1], Lz: box[2], X: x}
				nl.Build(sys)
				name := fmt.Sprintf("axis %d, l %v, atom at %v", a, l, f)
				within := 0
				for i := 0; i < sys.N; i++ {
					var want []int32
					for j := 0; j < sys.N; j++ {
						dx, dy, dz := sys.MinImage(i, j)
						if j != i && dx*dx+dy*dy+dz*dz <= r*r {
							want = append(want, int32(j))
						}
					}
					if i == 0 {
						within = len(want)
					}
					if got := nl.Row(i); !slices.Equal(got, want) {
						t.Errorf("%s: row %d = %v, minimum image %v", name, i, got, want)
						break
					}
				}
				if within == 0 {
					t.Fatalf("%s: no partner within the radius: the test tests nothing", name)
				}
			}
		}
	}
}

// FuzzNeighborList checks BuildOwned against the linked-cell reference on a
// fuzzed box (each length folded into [0.5, 40.5), list radius 1.8), fuzzed
// atoms (1 to 256, drawn from seed uniformly in the box or, for snap > 0, on
// the grid of snap steps per box length, which puts atoms on cell faces and
// at exactly 0 and l; randomAtoms pins some to 0 and l either way) and
// fuzzed global ids and row count (from seed). A box of at least 5 list
// radii (9.0) along x and y and 3 (5.4) along z, with no coordinate outside
// [0, l), takes the shifted sweep; every other box, every atom set with an
// atom at exactly l, and every atom set with outside set (one coordinate a
// hair below 0), takes the per-candidate minimum image. An atom set with
// atoms at exactly l is built again with those folded to 0. The seeds hold
// one of each, boxes on either side of each axis's guard, and a box whose
// z length is exactly 3 list radii, where an atom at l once lost its pairs
// at exactly the list radius.
func FuzzNeighborList(f *testing.F) {
	f.Add(12.6, 12.6, 12.6, int64(1), uint16(300), uint8(0), false)
	f.Add(12.6, 12.6, 12.6, int64(2), uint16(300), uint8(0), true)
	f.Add(9.05, 8.95, 12.6, int64(3), uint16(200), uint8(0), false)
	f.Add(12.6, 9.05, 5.45, int64(4), uint16(200), uint8(7), false)
	f.Add(12.6, 12.6, 5.35, int64(5), uint16(200), uint8(0), false)
	f.Add(3.6, 3.6, 3.6, int64(6), uint16(40), uint8(4), false)
	f.Add(12.6, 5.25, -4.9, int64(-99), uint16(460), uint8(9), false)
	f.Fuzz(func(t *testing.T, lx, ly, lz float64, seed int64, atoms uint16, snap uint8, outside bool) {
		var box [3]float64
		for a, l := range [3]float64{lx, ly, lz} {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Skip("not a box length")
			}
			box[a] = 0.5 + math.Mod(math.Abs(l), 40)
		}
		rng := rand.New(rand.NewSource(seed))
		sys, ids := randomAtoms(rng, 1+int(atoms%256), box)
		n := sys.N
		if snap > 0 {
			for k := range sys.X {
				sys.X[k] = float64(rng.Intn(int(snap)+1)) / float64(snap) * box[k%3]
			}
		}
		if outside {
			sys.X[rng.Intn(3*n)] = -1e-12
		}
		nOwn := 1 + rng.Intn(n)
		nl := &NeighborList{Cutoff: 1.5, Skin: 0.3}
		r := nl.Cutoff + nl.Skin
		guard := box[0]/r >= 5 && box[1]/r >= 5 && box[2]/r >= 3 && !outside
		name := fmt.Sprintf("box %v, %d atoms", box, n)
		// As drawn, then, if an atom sits at exactly l, with those atoms
		// folded to 0: the same configuration, on the shifted sweep if the
		// box passes its guard.
		for pass := 0; ; pass++ {
			nl.BuildOwned(sys, ids, nOwn)
			top := hasTop(sys)
			if shifted := guard && !top; nl.shifted != shifted {
				t.Fatalf("%s (pass %d): shifted sweep = %v, want %v", name, pass, nl.shifted, shifted)
			}
			assertSameList(t, fmt.Sprintf("%s (pass %d)", name, pass), nl, sys, ids, nOwn)
			if !top {
				break
			}
			foldTop(sys)
		}
	})
}

// foldTop moves every coordinate at exactly its box length l to 0, the same
// point of the periodic box.
func foldTop(sys *System) {
	box := [3]float64{sys.Lx, sys.Ly, sys.Lz}
	for k, x := range sys.X {
		if x == box[k%3] {
			sys.X[k] = 0
		}
	}
}

// hasTop reports whether any coordinate is at exactly its box length.
func hasTop(sys *System) bool {
	box := [3]float64{sys.Lx, sys.Ly, sys.Lz}
	for k, x := range sys.X {
		if x == box[k%3] {
			return true
		}
	}
	return false
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
