package md

import (
	"fmt"
	"math"

	"mlmd/internal/par"
)

// Chunk sizes for the pool-parallel passes. They are fixed constants (not
// derived from the worker count) so chunk boundaries — and therefore the
// merged pair order — are identical for every worker count, including the
// serial inline path.
const (
	cellGrain   = 2048 // atoms per chunk, cell-index pass
	pairGrain   = 128  // atoms per chunk, pair collection + pair forces
	gatherGrain = 512  // atoms per chunk, force gather
)

// pairBuf is one worker's pair staging buffer.
type pairBuf struct{ b []int32 }

// NeighborList is a Verlet list built by linked-cell binning: O(N) build,
// suitable for the million-atom workloads of the NNQMD module. The list
// includes every pair within cutoff+skin; it remains valid until some atom
// moves more than skin/2.
//
// Build runs on the shared worker pool and is allocation-free in steady
// state: all intermediate arrays (cell bins, per-worker pair buffers, the
// full-list CSR) are retained across rebuilds. The pair list it produces is
// bitwise identical for every worker count.
type NeighborList struct {
	Cutoff, Skin float64
	// Start[i]:End[i] indexes Pairs for atom i's neighbors j > i half-list.
	Start, End []int32
	Pairs      []int32
	// refX stores positions at build time for staleness checks.
	refX []float64

	// Reusable build scratch. Pair collection is split into `parts`
	// contiguous atom ranges; part k stages its pairs in bufs slot k, so
	// buffer contents (and steady-state buffer sizes) are deterministic
	// and total staging memory stays O(pairs), not O(workers × pairs).
	cellIdx    []int32 // per-atom linear cell index, computed once per build
	counts     []int32 // per-atom pair count from the collect pass
	head, next []int32 // linked-cell bins
	bufs       *par.Scratch[pairBuf]

	// Full-list CSR, rebuilt with the half list: atom i's full
	// neighborhood is fullAdj[fullStart[i]:fullStart[i+1]], ordered by
	// ascending half-list pair index (neighbors discovered by earlier
	// rows first, then atom i's own row — the order the seed's per-call
	// expansion produced). incRef[incStart[i]:incStart[i+1]] lists just
	// the incoming half of that ordering as pair indices p (rows j < i
	// that store the pair (j, i)), ascending; force gathers walk it and
	// then atom i's own contiguous Start[i]:End[i] range, which together
	// reproduce the serial half-list accumulation order exactly.
	fullStart []int32
	fullAdj   []int32
	incStart  []int32
	incRef    []int32
	incCur    []int32

	// Cached par.For bodies: created once, reading per-call parameters
	// from bctx, so steady-state rebuilds allocate nothing.
	bctx struct {
		sys           *System
		ncx, ncy, ncz int
		r2            float64
		parts         int
		bufCap        int // per-part staging presize
	}
	cellFn, collectFn, mergeFn func(lo, hi, w int)
}

// NewNeighborList allocates a list with the given cutoff and skin.
func NewNeighborList(cutoff, skin float64) (*NeighborList, error) {
	if cutoff <= 0 || skin < 0 {
		return nil, fmt.Errorf("md: bad cutoff %g / skin %g", cutoff, skin)
	}
	return &NeighborList{Cutoff: cutoff, Skin: skin}, nil
}

// Build rebuilds the half neighbor list (and its full-list CSR) from sys.
func (nl *NeighborList) Build(sys *System) {
	r := nl.Cutoff + nl.Skin
	ncx := cellCount(sys.Lx, r)
	ncy := cellCount(sys.Ly, r)
	ncz := cellCount(sys.Lz, r)
	ncells := ncx * ncy * ncz
	n := sys.N
	nl.head = resizeI32(nl.head, ncells)
	nl.next = resizeI32(nl.next, n)
	nl.cellIdx = resizeI32(nl.cellIdx, n)
	nl.counts = resizeI32(nl.counts, n)
	nl.Start = resizeI32(nl.Start, n)
	nl.End = resizeI32(nl.End, n)
	nl.bctx.sys = sys
	nl.bctx.ncx, nl.bctx.ncy, nl.bctx.ncz = ncx, ncy, ncz
	nl.bctx.r2 = r * r
	nl.ensureClosures()

	// Pass 1: per-atom cell indices, in parallel. Storing them also fixes
	// the seed's duplicate cell computation in the pair loop.
	par.For(n, cellGrain, nl.cellFn)

	// Serial linked-cell binning: O(N) pointer chasing, memory-bound.
	// Insertion order (ascending i) fixes the traversal order of each
	// cell's chain and must not change: the pair order depends on it.
	head := nl.head
	for i := range head {
		head[i] = -1
	}
	next := nl.next
	for i := 0; i < n; i++ {
		c := nl.cellIdx[i]
		next[i] = head[c]
		head[c] = int32(i)
	}

	// Pass 2: collect pairs into one staging buffer per part, where part
	// k owns the contiguous atom range [k·n/parts, (k+1)·n/parts). The
	// part index — not the (scheduling-dependent) worker id — selects the
	// buffer, so contents and steady-state sizes are deterministic. Each
	// part presizes its slot from the previous build's per-part share,
	// which keeps steady-state rebuilds free of append growth.
	parts := par.Workers()
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1 // empty system: keep bufCap's divisions well-defined
	}
	nl.bctx.parts = parts
	nl.bctx.bufCap = cap(nl.Pairs)/parts + cap(nl.Pairs)/(4*parts) + 64
	par.For(parts, 1, nl.collectFn)

	// Prefix-sum counts into Start/End and size Pairs.
	total := int32(0)
	for i := 0; i < n; i++ {
		nl.Start[i] = total
		total += nl.counts[i]
		nl.End[i] = total
	}
	nl.Pairs = resizeI32(nl.Pairs, int(total))

	// Merge the part segments into Pairs in part order: ascending
	// contiguous atom ranges concatenate to the serial atom order exactly.
	par.For(parts, 1, nl.mergeFn)

	nl.buildFullCSR(n)

	nl.refX = resizeF64(nl.refX, len(sys.X))
	copy(nl.refX, sys.X)
}

// ensureClosures builds the cached par.For bodies on first use.
func (nl *NeighborList) ensureClosures() {
	if nl.cellFn != nil {
		return
	}
	nl.bufs = par.NewScratch(func() *pairBuf { return &pairBuf{} })
	nl.cellFn = func(lo, hi, _ int) {
		sys := nl.bctx.sys
		ncx, ncy, ncz := nl.bctx.ncx, nl.bctx.ncy, nl.bctx.ncz
		for i := lo; i < hi; i++ {
			cx := clampCell(int(sys.X[3*i]/sys.Lx*float64(ncx)), ncx)
			cy := clampCell(int(sys.X[3*i+1]/sys.Ly*float64(ncy)), ncy)
			cz := clampCell(int(sys.X[3*i+2]/sys.Lz*float64(ncz)), ncz)
			nl.cellIdx[i] = int32((cx*ncy+cy)*ncz + cz)
		}
	}
	nl.collectFn = func(part, _, _ int) {
		sys := nl.bctx.sys
		ncx, ncy, ncz := nl.bctx.ncx, nl.bctx.ncy, nl.bctx.ncz
		r2 := nl.bctx.r2
		head, next, cellIdx, counts := nl.head, nl.next, nl.cellIdx, nl.counts
		x := sys.X
		px, py, pz := sys.Periods()
		lo := part * sys.N / nl.bctx.parts
		hi := (part + 1) * sys.N / nl.bctx.parts
		buf := nl.bufs.Get(part)
		b := buf.b[:0]
		if cap(b) < nl.bctx.bufCap {
			b = make([]int32, 0, nl.bctx.bufCap)
		}
		for i := lo; i < hi; i++ {
			start := len(b)
			xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
			c := int(cellIdx[i])
			cz := c % ncz
			cy := (c / ncz) % ncy
			cx := c / (ncz * ncy)
			for ox := -1; ox <= 1; ox++ {
				// With fewer than 3 cells along an axis the ±1 offsets
				// alias; dedupe by skipping the redundant sweep.
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
						cc := (mod(cx+ox, ncx)*ncy+mod(cy+oy, ncy))*ncz + mod(cz+oz, ncz)
						for j := head[cc]; j >= 0; j = next[j] {
							if int(j) <= i {
								continue
							}
							dx := px.MinImage(xi - x[3*j])
							dy := py.MinImage(yi - x[3*j+1])
							dz := pz.MinImage(zi - x[3*j+2])
							if dx*dx+dy*dy+dz*dz <= r2 {
								b = append(b, j)
							}
						}
					}
				}
			}
			counts[i] = int32(len(b) - start)
		}
		buf.b = b
	}
	nl.mergeFn = func(part, _, _ int) {
		src := nl.bufs.Get(part).b
		if len(src) == 0 {
			return
		}
		lo := part * nl.bctx.sys.N / nl.bctx.parts
		dst := nl.Start[lo]
		copy(nl.Pairs[dst:int(dst)+len(src)], src)
	}
}

// buildFullCSR expands the half list into the full-list CSR and the
// incoming-only pair-reference CSR (serial: two O(pairs) passes over
// memory, cheap next to the distance sweep).
func (nl *NeighborList) buildFullCSR(n int) {
	np := len(nl.Pairs)
	nl.fullStart = resizeI32(nl.fullStart, n+1)
	nl.fullAdj = resizeI32(nl.fullAdj, 2*np)
	nl.incStart = resizeI32(nl.incStart, n+1)
	nl.incRef = resizeI32(nl.incRef, np)
	nl.incCur = resizeI32(nl.incCur, n)
	inc := nl.incCur
	for i := 0; i < n; i++ {
		inc[i] = 0
	}
	for _, j := range nl.Pairs {
		inc[j]++
	}
	deg := nl.counts // reuse: counts are dead after Build's prefix sum
	sf, si := int32(0), int32(0)
	for i := 0; i < n; i++ {
		nl.fullStart[i] = sf
		sf += inc[i] + nl.End[i] - nl.Start[i]
		deg[i] = nl.fullStart[i] // full-list fill cursor
		nl.incStart[i] = si
		si += inc[i]
		inc[i] = nl.incStart[i] // incoming fill cursor
	}
	nl.fullStart[n] = sf
	nl.incStart[n] = si
	for i := 0; i < n; i++ {
		for p := nl.Start[i]; p < nl.End[i]; p++ {
			j := nl.Pairs[p]
			ci := deg[i]
			deg[i]++
			nl.fullAdj[ci] = j
			cj := deg[j]
			deg[j]++
			nl.fullAdj[cj] = int32(i)
			nl.incRef[inc[j]] = p
			inc[j]++
		}
	}
}

// buildSerial is the seed's single-threaded Build, kept verbatim as the
// reference implementation for the bitwise-equivalence tests and the
// benchmark baseline. It fills Start/End/Pairs/refX only (no CSR).
func (nl *NeighborList) buildSerial(sys *System) {
	r := nl.Cutoff + nl.Skin
	ncx := cellCount(sys.Lx, r)
	ncy := cellCount(sys.Ly, r)
	ncz := cellCount(sys.Lz, r)
	ncells := ncx * ncy * ncz
	head := make([]int32, ncells)
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, sys.N)
	cellOf := func(i int) int {
		cx := clampCell(int(sys.X[3*i]/sys.Lx*float64(ncx)), ncx)
		cy := clampCell(int(sys.X[3*i+1]/sys.Ly*float64(ncy)), ncy)
		cz := clampCell(int(sys.X[3*i+2]/sys.Lz*float64(ncz)), ncz)
		return (cx*ncy+cy)*ncz + cz
	}
	for i := 0; i < sys.N; i++ {
		c := cellOf(i)
		next[i] = head[c]
		head[c] = int32(i)
	}
	nl.Start = resizeI32(nl.Start, sys.N)
	nl.End = resizeI32(nl.End, sys.N)
	nl.Pairs = nl.Pairs[:0]
	r2 := r * r
	for i := 0; i < sys.N; i++ {
		nl.Start[i] = int32(len(nl.Pairs))
		cx := clampCell(int(sys.X[3*i]/sys.Lx*float64(ncx)), ncx)
		cy := clampCell(int(sys.X[3*i+1]/sys.Ly*float64(ncy)), ncy)
		cz := clampCell(int(sys.X[3*i+2]/sys.Lz*float64(ncz)), ncz)
		for ox := -1; ox <= 1; ox++ {
			for oy := -1; oy <= 1; oy++ {
				for oz := -1; oz <= 1; oz++ {
					if ncx < 3 && ox > ncx-2 {
						continue
					}
					if ncy < 3 && oy > ncy-2 {
						continue
					}
					if ncz < 3 && oz > ncz-2 {
						continue
					}
					c := (mod(cx+ox, ncx)*ncy+mod(cy+oy, ncy))*ncz + mod(cz+oz, ncz)
					for j := head[c]; j >= 0; j = next[j] {
						if int(j) <= i {
							continue
						}
						dx, dy, dz := sys.MinImage(i, int(j))
						if dx*dx+dy*dy+dz*dz <= r2 {
							nl.Pairs = append(nl.Pairs, j)
						}
					}
				}
			}
		}
		nl.End[i] = int32(len(nl.Pairs))
	}
	nl.refX = append(nl.refX[:0], sys.X...)
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

// Neighbors returns the half-list neighbors of atom i (j > i entries only).
func (nl *NeighborList) Neighbors(i int) []int32 {
	return nl.Pairs[nl.Start[i]:nl.End[i]]
}

// FullNeighbors returns the full neighbor list of atom i (both j > i and
// j < i), valid until the next Build. Entries are ordered by ascending
// half-list pair index: neighbors discovered by earlier rows first, then
// atom i's own row — the same order the seed's per-call expansion produced.
func (nl *NeighborList) FullNeighbors(i int) []int32 {
	return nl.fullAdj[nl.fullStart[i]:nl.fullStart[i+1]]
}

// NumPairs returns the total number of stored pairs.
func (nl *NeighborList) NumPairs() int { return len(nl.Pairs) }

func cellCount(l, r float64) int {
	n := int(math.Floor(l / r))
	if n < 1 {
		n = 1
	}
	return n
}

func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

func mod(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

// LennardJones is the simple pair force field used to validate the MD
// engine (and as a cheap "MM" level in the metamodel-space algebra tests).
// ComputeForces runs on the shared worker pool in two race-free phases and
// is allocation-free in steady state; see ComputeForces.
type LennardJones struct {
	Epsilon, Sigma float64
	NL             *NeighborList

	// Reusable force scratch: per-pair force vectors, per-chunk energy
	// partials, and the within-cutoff mask.
	pairF   []float64
	peChunk []float64
	skip    []uint8
	fctx    struct {
		sys *System
		rc2 float64
	}
	pairFn, gatherFn func(lo, hi, w int)
}

// ComputeForces implements ForceField with a shifted-force LJ at the list
// cutoff.
//
// Phase A computes per-pair force vectors sharded by half-list rows
// (disjoint pair ranges — no races). Phase B gathers per-atom forces
// through the full-list CSR (disjoint atoms — no races). Because each
// atom's gather follows ascending pair index — incoming rows first, own
// row last — the result is bitwise identical to the seed's serial
// half-list accumulation for every worker count.
func (lj *LennardJones) ComputeForces(sys *System) float64 {
	if lj.NL.Stale(sys) {
		lj.NL.Build(sys)
	}
	np := len(lj.NL.Pairs)
	nchunks := (sys.N + pairGrain - 1) / pairGrain
	lj.pairF = resizeF64(lj.pairF, 3*np)
	lj.peChunk = resizeF64(lj.peChunk, nchunks)
	lj.skip = resizeU8(lj.skip, np)
	lj.fctx.sys = sys
	lj.fctx.rc2 = lj.NL.Cutoff * lj.NL.Cutoff
	lj.ensureClosures()
	par.For(sys.N, pairGrain, lj.pairFn)
	par.For(sys.N, gatherGrain, lj.gatherFn)
	// Chunk partials summed in chunk order: the total is deterministic
	// and independent of the worker count (chunk boundaries are fixed),
	// though it may differ from the reference loop's single running sum
	// in the last few ulps.
	var pe float64
	for _, v := range lj.peChunk[:nchunks] {
		pe += v
	}
	return pe
}

func (lj *LennardJones) ensureClosures() {
	if lj.pairFn != nil {
		return
	}
	lj.pairFn = func(lo, hi, _ int) {
		sys := lj.fctx.sys
		rc2 := lj.fctx.rc2
		nl := lj.NL
		x := sys.X
		px, py, pz := sys.Periods()
		var pe float64
		for i := lo; i < hi; i++ {
			xi, yi, zi := x[3*i], x[3*i+1], x[3*i+2]
			for p := int(nl.Start[i]); p < int(nl.End[i]); p++ {
				j := int(nl.Pairs[p])
				dx := px.MinImage(xi - x[3*j])
				dy := py.MinImage(yi - x[3*j+1])
				dz := pz.MinImage(zi - x[3*j+2])
				r2 := dx*dx + dy*dy + dz*dz
				if r2 > rc2 || r2 == 0 {
					lj.skip[p] = 1
					continue
				}
				lj.skip[p] = 0
				sr2 := lj.Sigma * lj.Sigma / r2
				sr6 := sr2 * sr2 * sr2
				sr12 := sr6 * sr6
				pe += 4 * lj.Epsilon * (sr12 - sr6)
				fmag := 24 * lj.Epsilon * (2*sr12 - sr6) / r2
				lj.pairF[3*p] = fmag * dx
				lj.pairF[3*p+1] = fmag * dy
				lj.pairF[3*p+2] = fmag * dz
			}
		}
		lj.peChunk[lo/pairGrain] = pe
	}
	lj.gatherFn = func(lo, hi, _ int) {
		sys := lj.fctx.sys
		nl := lj.NL
		for i := lo; i < hi; i++ {
			var fx, fy, fz float64
			// Incoming contributions (rows j < i), ascending pair index.
			for q := nl.incStart[i]; q < nl.incStart[i+1]; q++ {
				p := int(nl.incRef[q])
				if lj.skip[p] != 0 {
					continue
				}
				fx -= lj.pairF[3*p]
				fy -= lj.pairF[3*p+1]
				fz -= lj.pairF[3*p+2]
			}
			// Own row: a contiguous, prefetch-friendly pairF range.
			for p := int(nl.Start[i]); p < int(nl.End[i]); p++ {
				if lj.skip[p] != 0 {
					continue
				}
				fx += lj.pairF[3*p]
				fy += lj.pairF[3*p+1]
				fz += lj.pairF[3*p+2]
			}
			sys.F[3*i] = fx
			sys.F[3*i+1] = fy
			sys.F[3*i+2] = fz
		}
	}
}

// computeForcesSerial is the seed's single-threaded half-list loop, kept
// verbatim as the reference for the bitwise-equivalence tests and the
// benchmark baseline. It requires a current (non-stale) neighbor list.
func (lj *LennardJones) computeForcesSerial(sys *System) float64 {
	for i := range sys.F {
		sys.F[i] = 0
	}
	rc := lj.NL.Cutoff
	rc2 := rc * rc
	var pe float64
	for i := 0; i < sys.N; i++ {
		for _, j32 := range lj.NL.Neighbors(i) {
			j := int(j32)
			dx, dy, dz := sys.MinImage(i, j)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 > rc2 || r2 == 0 {
				continue
			}
			sr2 := lj.Sigma * lj.Sigma / r2
			sr6 := sr2 * sr2 * sr2
			sr12 := sr6 * sr6
			pe += 4 * lj.Epsilon * (sr12 - sr6)
			fmag := 24 * lj.Epsilon * (2*sr12 - sr6) / r2
			sys.F[3*i] += fmag * dx
			sys.F[3*i+1] += fmag * dy
			sys.F[3*i+2] += fmag * dz
			sys.F[3*j] -= fmag * dx
			sys.F[3*j+1] -= fmag * dy
			sys.F[3*j+2] -= fmag * dz
		}
	}
	return pe
}
