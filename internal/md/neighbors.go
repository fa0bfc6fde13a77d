package md

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// NeighborList is the full Verlet neighbor list: one CSR row per row atom
// listing every atom within cutoff+skin, sorted by ascending global id. The
// global-id order is the heart of the decomposed engine's determinism
// contract (internal/shard): a force field that accumulates each atom's pair
// sum in row order computes bitwise-identical forces for every
// decomposition, and for the unsharded system, because the set (same
// inclusion test on the same raw coordinates) and the order (global ids) are
// both decomposition-invariant.
//
// Binning is cell-sorted CSR on the box's cell geometry, but only the cells
// the listed atoms can reach get a bin: per axis, the cell indices some atom
// occupies are numbered consecutively (cellAxis), and a bin is a triple of
// those numbers. A rank's owned box plus halo occupies a product of per-axis
// index sets, wrapped around the box or not, so the bins are its bounding
// block of cells. Every build
//
//   - ranks the atoms by global id with one integer sort of packed
//     gid<<32|local keys,
//   - counting-sorts them into their bins, keeping bin-contiguous copies of
//     the coordinates (one array per axis) beside each slot's gid rank,
//   - sweeps each row atom's neighbor cells over those contiguous blocks
//     (cells adjacent along z are adjacent in memory, so a sweep is 9 straight
//     runs in the bulk; see zFine), and
//   - emits the accepted ranks in ascending order through a bitmap (rankSet)
//     instead of sorting the row.
//
// The sweep needs no minimum image per candidate where the box allows it
// (shiftGuard): each run of cells along an axis either lies within half a
// box of the row atom or wholly across the periodic boundary, so cellRuns
// hands back one shift per run (0, +l or −l) and sweepShifted tests
// ((xi−xs)−sx)² + ((yi−ys)−sy)² + ((zi−zs)−sz)² ≤ r², the bits Period.MinImage
// would give. Otherwise the build sweeps with the per-candidate MinImage
// (sweepImages), the reference the shifted sweep must equal.
//
// Rebuild work is O(atoms + bins + candidate pairs) plus one pass over each
// axis's cell indices (the cube root of the global cell count). All buffers
// are retained across rebuilds, so steady-state rebuilds allocate nothing.
type NeighborList struct {
	Cutoff, Skin float64

	// Row i of the CSR is adj[start[i]:start[i+1]] (local indices).
	start []int32
	adj   []int32

	// byGid holds the atoms' gid<<32|local keys in ascending order: the
	// atom of gid rank r is uint32(byGid[r]).
	byGid []uint64
	// cellAxis[a][c] counts the occupied cell indices below c along axis a,
	// which is cell index c's bin coordinate where c is occupied itself;
	// cellOf is each atom's bin.
	// Bin b's atoms occupy slots cellStart[b]:cellStart[b+1] of the
	// coordinate copies binX, binY, binZ and of cellRank (gid rank).
	// cellStart carries one spare trailing element for the counting sort.
	cellAxis         [3][]int32
	cellOf           []int32
	cellStart        []int32
	binX, binY, binZ []float64
	cellRank         []uint32
	// row[:m] holds the current row's accepted candidates (a sweep stores
	// every candidate and advances m past the accepted ones); a row's runs
	// visit each bin at most once, so one slot per atom is enough.
	row   []uint32
	order rankSet
	// shifted records whether the last build swept with per-run shifts
	// (sweepShifted) rather than per-candidate minimum images.
	shifted bool

	// refX stores positions at the last Build, for Stale.
	refX []float64
}

// zFine is how many cells the z axis cuts one list radius into. Runs of cells
// along z are contiguous in memory whatever their length, so finer z cells
// cost no extra sweeps and trim the swept slab from 3 list radii toward 2
// (2.25 at 4, a quarter fewer candidates); the price is zFine times as many
// bins.
const zFine = 4

// NewNeighborList allocates a list with the given cutoff and skin.
func NewNeighborList(cutoff, skin float64) (*NeighborList, error) {
	if cutoff <= 0 || skin < 0 {
		return nil, fmt.Errorf("md: bad cutoff %g / skin %g", cutoff, skin)
	}
	return &NeighborList{Cutoff: cutoff, Skin: skin}, nil
}

// Row returns row atom i's neighbors (local indices, ascending gid).
func (nl *NeighborList) Row(i int) []int32 {
	return nl.adj[nl.start[i]:nl.start[i+1]]
}

// Rows returns the neighbors of rows [lo, hi), concatenated in row order.
func (nl *NeighborList) Rows(lo, hi int) []int32 {
	return nl.adj[nl.start[lo]:nl.start[hi]]
}

// RowOffset returns the CSR slot of row i's first neighbor: row i occupies
// slots [RowOffset(i), RowOffset(i+1)), so a side array indexed by slot
// lines up with Row(i).
func (nl *NeighborList) RowOffset(i int) int { return int(nl.start[i]) }

// NumPairs returns the stored (directed) neighbor count.
func (nl *NeighborList) NumPairs() int { return len(nl.adj) }

// PairCap returns how many neighbor slots the list holds before it has to
// grow: a per-slot side array sized to it grows only when the list does.
func (nl *NeighborList) PairCap() int { return cap(nl.adj) }

// Build rebuilds the list of an unsharded system — atom i has global id i
// and every atom owns a row — and records the positions Stale measures
// drift from.
func (nl *NeighborList) Build(sys *System) {
	nl.BuildOwned(sys, nil, sys.N)
	nl.refX = append(nl.refX[:0], sys.X...)
}

// BuildOwned rebuilds the list over the atoms of sys, of which only
// [0, nOwn) get a row; the rest are candidates only. ids[i] is atom i's
// global id (nil means i itself).
func (nl *NeighborList) BuildOwned(sys *System, ids []int32, nOwn int) {
	r := nl.Cutoff + nl.Skin
	box := [3]float64{sys.Lx, sys.Ly, sys.Lz}
	nc := [3]int{cellCount(sys.Lx, r), cellCount(sys.Ly, r), cellCount(sys.Lz, r) * zFine}
	reach := [3]int{1, 1, zFine} // cells a list radius spans, per axis
	n := sys.N

	if cap(nl.byGid) < n {
		nl.byGid = make([]uint64, n)
		nl.cellRank = make([]uint32, n)
	}
	byGid, ranks := nl.byGid[:n], nl.cellRank[:n]
	for i := range byGid {
		gid := uint32(i)
		if ids != nil {
			gid = uint32(ids[i])
		}
		byGid[i] = uint64(gid)<<32 | uint64(uint32(i))
	}
	if ids != nil {
		slices.Sort(byGid)
	}

	// Per axis, which cell indices are occupied: flagged at c+1, so that the
	// running sum leaves at c the number of occupied indices below c and at
	// nc[a] their total. The same pass checks that every coordinate lies in
	// [0, l), which the shifted sweep needs.
	var nb [3]int
	shifted := true
	for a := range nc {
		nl.cellAxis[a] = resizeI32(nl.cellAxis[a], nc[a]+1)
		ca := nl.cellAxis[a]
		clear(ca)
		l := box[a]
		for i := 0; i < n; i++ {
			x := sys.X[3*i+a]
			shifted = shifted && x >= 0 && x < l
			ca[axisCell(x, l, nc[a])+1] = 1
		}
		for c := 1; c < len(ca); c++ {
			ca[c] += ca[c-1]
		}
		nb[a] = int(ca[nc[a]])
		shifted = shifted && shiftGuard(nc[a], reach[a])
	}
	nl.shifted = shifted
	bx, by, bz := nl.cellAxis[0], nl.cellAxis[1], nl.cellAxis[2]

	// Counting sort into bins. Counts go in at b+2, so after the prefix sum
	// cs[b+1] is bin b's first slot; the fill advances it to bin b+1's first
	// slot, which leaves cs[b]:cs[b+1] as bin b's range. (The bin count
	// moves a little from rebuild to rebuild as cells at the rim empty and
	// fill, hence the amortized growth.)
	nbins := nb[0] * nb[1] * nb[2]
	nl.cellStart = slices.Grow(nl.cellStart[:0], nbins+2)[:nbins+2]
	nl.cellOf = resizeI32(nl.cellOf, n)
	nl.binX, nl.binY, nl.binZ = resizeF64(nl.binX, n), resizeF64(nl.binY, n), resizeF64(nl.binZ, n)
	cs, cellOf := nl.cellStart, nl.cellOf
	binX, binY, binZ := nl.binX, nl.binY, nl.binZ
	clear(cs)
	for i := 0; i < n; i++ {
		ax := bx[axisCell(sys.X[3*i], box[0], nc[0])]
		ay := by[axisCell(sys.X[3*i+1], box[1], nc[1])]
		az := bz[axisCell(sys.X[3*i+2], box[2], nc[2])]
		b := (int(ax)*nb[1]+int(ay))*nb[2] + int(az)
		cellOf[i] = int32(b)
		cs[b+2]++
	}
	for b := 2; b < len(cs); b++ {
		cs[b] += cs[b-1]
	}
	for rank, key := range byGid {
		i := uint32(key)
		s := cs[cellOf[i]+1]
		cs[cellOf[i]+1]++
		binX[s], binY[s], binZ[s] = sys.X[3*i], sys.X[3*i+1], sys.X[3*i+2]
		ranks[s] = uint32(rank)
	}

	nl.start = resizeI32(nl.start, nOwn+1)
	nl.row = resizeU32(nl.row, n)
	nl.order.resize(n)
	r2cut := r * r
	px, py, pz := sys.Periods()
	adj, row := nl.adj[:0], nl.row
	var runX, runY, runZ [2]axisRun
	for i := 0; i < nOwn; i++ {
		nl.start[i] = int32(len(adj))
		xi, yi, zi := sys.X[3*i], sys.X[3*i+1], sys.X[3*i+2]
		rx := runX[:cellRuns(&runX, axisCell(xi, box[0], nc[0]), nc[0], reach[0], box[0], bx)]
		ry := runY[:cellRuns(&runY, axisCell(yi, box[1], nc[1]), nc[1], reach[1], box[1], by)]
		rz := runZ[:cellRuns(&runZ, axisCell(zi, box[2], nc[2]), nc[2], reach[2], box[2], bz)]
		m := 0
		for _, xr := range rx {
			for ax := xr.lo; ax < xr.hi; ax++ {
				for _, yr := range ry {
					for ay := yr.lo; ay < yr.hi; ay++ {
						base := (ax*nb[1] + ay) * nb[2]
						for _, zr := range rz {
							// Bins adjacent along z are adjacent in slot
							// order: one sweep covers the whole run.
							lo, hi := int(cs[base+zr.lo]), int(cs[base+zr.hi])
							if shifted {
								m = sweepShifted(row, m, binX[lo:hi], binY[lo:hi], binZ[lo:hi], ranks[lo:hi],
									xi, yi, zi, xr.shift, yr.shift, zr.shift, r2cut)
							} else {
								m = sweepImages(row, m, binX[lo:hi], binY[lo:hi], binZ[lo:hi], ranks[lo:hi],
									xi, yi, zi, r2cut, px, py, pz)
							}
						}
					}
				}
			}
		}
		for _, rank := range row[:m] {
			nl.order.add(rank)
		}
		// The sweep met atom i itself, at distance 0; drain leaves it out.
		adj = nl.order.drain(adj, byGid, int32(i))
	}
	nl.start[nOwn] = int32(len(adj))
	nl.adj = adj
}

// Stale reports whether any atom has moved more than skin/2 since Build.
func (nl *NeighborList) Stale(sys *System) bool {
	if len(nl.refX) != len(sys.X) {
		return true
	}
	lim2 := nl.Skin * nl.Skin / 4
	px, py, pz := sys.Periods()
	for i := 0; i < sys.N; i++ {
		dx := px.MinImage(sys.X[3*i] - nl.refX[3*i])
		dy := py.MinImage(sys.X[3*i+1] - nl.refX[3*i+1])
		dz := pz.MinImage(sys.X[3*i+2] - nl.refX[3*i+2])
		if dx*dx+dy*dy+dz*dz > lim2 {
			return true
		}
	}
	return false
}

// sweepShifted stores in row[m:] the gid rank of every slot of one bin run
// (coordinates xs, ys, zs, ranks rs), the ones within distance² r2 of the
// point (xi, yi, zi) first, and returns m plus the accepted count. The run's
// periodic image is the shift (sx, sy, sz): under shiftGuard, (xi−x)−s is
// the bit pattern Period.MinImage returns for every candidate of the run, up
// to the sign of a zero, which squaring drops. Advancing the fill only past
// the accepted slots keeps the unpredictable accept test from being a branch.
//
//mlmd:hotpath
func sweepShifted(row []uint32, m int, xs, ys, zs []float64, rs []uint32, xi, yi, zi, sx, sy, sz, r2 float64) int {
	out := row[m : m+len(rs)]
	xs, ys, zs = xs[:len(rs)], ys[:len(rs)], zs[:len(rs)]
	n := 0
	for s, rank := range rs {
		dx := xi - xs[s] - sx
		dy := yi - ys[s] - sy
		dz := zi - zs[s] - sz
		out[n] = rank
		if dx*dx+dy*dy+dz*dz <= r2 {
			n++
		}
	}
	return m + n
}

// sweepImages is sweepShifted with the minimum image taken per candidate:
// the reference sweep, and the one a build takes where shiftGuard fails.
//
//mlmd:hotpath
func sweepImages(row []uint32, m int, xs, ys, zs []float64, rs []uint32, xi, yi, zi, r2 float64, px, py, pz Period) int {
	out := row[m : m+len(rs)]
	xs, ys, zs = xs[:len(rs)], ys[:len(rs)], zs[:len(rs)]
	n := 0
	for s, rank := range rs {
		dx := px.MinImage(xi - xs[s])
		dy := py.MinImage(yi - ys[s])
		dz := pz.MinImage(zi - zs[s])
		out[n] = rank
		if dx*dx+dy*dy+dz*dz <= r2 {
			n++
		}
	}
	return m + n
}

// shiftGuard reports whether an axis cut into n cells, swept h cells either
// side of the row atom's cell, lets every run of cells carry one periodic
// shift: (h+1)/n ≤ 0.45, which also keeps the 2h+1 cells from overlapping
// around the ring. Then, with every coordinate in [0, l) (a build with a
// coordinate at l itself, which wrap1 returns for a tiny negative one, takes
// the per-candidate sweep: axisCell bins it in cell 0, as the image of 0):
//
//   - a run that does not wrap spans at most h+1 cells with the row atom, so
//     |d| ≤ 0.45·l < fl(0.49·l) and Period.MinImage returns d+0;
//   - a run across the boundary lies at least n−h−1 cells away, so
//     0.55·l ≤ |d| ≤ l and MinImage returns exactly d∓l, which is (d)−s for
//     the run's shift s = ±l.
//
// Both margins dwarf the relative rounding of the cell index and of the
// bounds. Where l is too small for that (subnormal), every squared distance
// underflows to 0 in both sweeps alike. With fewer than 5 list radii along x
// or y, or 3 along z, the guard fails.
func shiftGuard(n, h int) bool { return 20*(h+1) <= 9*n }

// axisRun is a run [lo, hi) of consecutive bin coordinates along one axis and
// the periodic shift that brings its atoms next to the row atom: 0, +l where
// the run wrapped to the low end of the axis from a row atom at the high
// end, −l the other way round.
type axisRun struct {
	lo, hi int
	shift  float64
}

// cellRuns fills out with the cells within h of cell c (c included) along a
// periodic axis of n cells and length l, as runs of consecutive bin
// coordinates (bin[c] being the occupied cell indices below c, an unoccupied
// stretch maps to an empty run), and returns the number of runs: one in the
// bulk, two where the neighborhood wraps around the box. Where the 2h+1 cells
// would overlap themselves around the ring (fewer than 3 list radii along the
// axis) the axis contributes each of its cells once, unshifted.
func cellRuns(out *[2]axisRun, c, n, h int, l float64, bin []int32) int {
	switch {
	case n <= 2*h+1:
		out[0] = binRun(bin, 0, n, 0)
	case c < h:
		out[0], out[1] = binRun(bin, 0, c+h+1, 0), binRun(bin, n+c-h, n, -l)
		return 2
	case c+h >= n:
		out[0], out[1] = binRun(bin, 0, c+h+1-n, l), binRun(bin, c-h, n, 0)
		return 2
	default:
		out[0] = binRun(bin, c-h, c+h+1, 0)
	}
	return 1
}

// binRun maps cells [lo, hi) of one axis to their run of bin coordinates.
func binRun(bin []int32, lo, hi int, shift float64) axisRun {
	return axisRun{int(bin[lo]), int(bin[hi]), shift}
}

// rankSet is a set of small integers (gid ranks below the atom count) that
// gives its members back in ascending order without comparing them: a
// bitmap with two summary levels, each bit of a level marking a non-zero word
// of the level below. Adding is three ORs; draining walks set bits only, so
// a row of m neighbors costs O(m) plus one word per 262144 atoms.
type rankSet struct {
	l0, l1, l2 []uint64
}

// resize makes room for members below n; the set must be empty.
func (s *rankSet) resize(n int) {
	s.l0 = bitWords(s.l0, n)
	s.l1 = bitWords(s.l1, len(s.l0))
	s.l2 = bitWords(s.l2, len(s.l1))
}

// bitWords resizes the all-zero bitmap w to hold n bits.
func bitWords(w []uint64, n int) []uint64 {
	k := (n + 63) / 64
	if cap(w) < k {
		return make([]uint64, k)
	}
	return w[:k]
}

func (s *rankSet) add(r uint32) {
	s.l0[r>>6] |= 1 << (r & 63)
	s.l1[r>>12] |= 1 << (r >> 6 & 63)
	s.l2[r>>18] |= 1 << (r >> 12 & 63)
}

// drain empties the set, appending to adj the local index (the low word of
// byGid[r]) of every member r in ascending order, except local index skip.
func (s *rankSet) drain(adj []int32, byGid []uint64, skip int32) []int32 {
	for w2, b2 := range s.l2 {
		if b2 == 0 {
			continue
		}
		s.l2[w2] = 0
		for ; b2 != 0; b2 &= b2 - 1 {
			w1 := w2<<6 | bits.TrailingZeros64(b2)
			b1 := s.l1[w1]
			s.l1[w1] = 0
			for ; b1 != 0; b1 &= b1 - 1 {
				w0 := w1<<6 | bits.TrailingZeros64(b1)
				b0 := s.l0[w0]
				s.l0[w0] = 0
				for ; b0 != 0; b0 &= b0 - 1 {
					if j := int32(uint32(byGid[w0<<6|bits.TrailingZeros64(b0)])); j != skip {
						adj = append(adj, j)
					}
				}
			}
		}
	}
	return adj
}

// axisCell returns the cell index of coordinate x along a periodic axis of
// length l cut into n cells. Cells only propose candidate pairs — membership
// is the min-image distance test — but the proposals are complete only if
// every atom is binned in the cell it lies in around the ring: a partner at
// exactly the list radius can sit right at the edge of the cells the sweep
// reaches, and one cell past them from an atom binned a cell off. So
// x = l, the periodic image of 0 (what wrap1 returns for a tiny negative
// coordinate), goes to cell 0, and a coordinate a hair below 0, the image
// of a point just below l, goes to the last cell.
func axisCell(x, l float64, n int) int {
	c := int(x / l * float64(n))
	switch {
	case x >= l:
		return 0
	case x < 0:
		return n - 1
	case c >= n: // x/l·n rounded up to n
		return n - 1
	case c < 0: // NaN
		return 0
	}
	return c
}

func cellCount(l, r float64) int {
	n := int(math.Floor(l / r))
	if n < 1 {
		n = 1
	}
	return n
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
