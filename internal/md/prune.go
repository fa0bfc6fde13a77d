package md

import "slices"

// Prune makes nl the list at its own radius, Cutoff+Skin, drawn from the
// rows of outer, a list of the same atoms at a radius at least as large:
// row i of nl keeps the members of outer's row i within that radius of atom
// i under the minimum image, in outer's order, so in ascending gid order.
// The accept test is BuildOwned's, so where outer holds every pair within
// nl's radius, Prune gives the rows BuildOwned would. Only [0, nOwn) get a
// row. The rows go into nl's retained buffers, which grow with nl's own
// pair count, so PairCap tracks the pruned list, not outer, and a prune
// whose list is no longer than an earlier one allocates nothing.
func (nl *NeighborList) Prune(outer *NeighborList, sys *System, nOwn int) {
	r := nl.Cutoff + nl.Skin
	k := pruneKernel{r2: r * r}
	k.px, k.py, k.pz = sys.Periods()
	x := sys.X
	nl.start = resizeI32(nl.start, nOwn+1)
	adj := nl.adj[:0]
	for i := 0; i < nOwn; i++ {
		nl.start[i] = int32(len(adj))
		orow := outer.Row(i)
		adj = slices.Grow(adj, len(orow))
		n := len(adj)
		adj = adj[:n+k.row(adj[n:n+len(orow)], x, orow, x[3*i], x[3*i+1], x[3*i+2])]
	}
	nl.start[nOwn] = int32(len(adj))
	nl.adj = adj
}

// Reserve makes room for pairs stored neighbors, so that a later Prune or
// BuildOwned whose list holds no more than that allocates nothing.
func (nl *NeighborList) Reserve(pairs int) {
	if pairs > cap(nl.adj) {
		nl.adj = slices.Grow(nl.adj, pairs-len(nl.adj))
	}
}

// pruneKernel holds what the prune reads: the squared list radius and the
// box periods. It is also the argument block of the prune kernels, which
// read its fields at fixed offsets (TestPruneKernelArgsLayout).
type pruneKernel struct {
	r2         float64
	px, py, pz Period
}

// row stores in out, compacted in row order, the candidates of row within
// the list radius of the atom at (xi, yi, zi), and returns how many. out
// must hold len(row) slots. The kernels take groups of 8 (AVX-512) then of
// 4 (AVX2), and stop at a group they cannot take — a lane whose separation
// needs minImageFormula (NaN and ±Inf included) or an index outside x —
// which rowRef then takes, as it takes the last len(row) % 4 candidates,
// and every candidate on the reference path.
//
//mlmd:hotpath
func (k *pruneKernel) row(out []int32, x []float64, row []int32, xi, yi, zi float64) int {
	c, m, n4 := 0, 0, len(row)&^3
	if useAVX512 && n4 >= 8 {
		c, m = pruneAVX512(k, &x[0], len(x)/3, &row[0], n4&^7, xi, yi, zi, &out[0])
	}
	if useAVX2 {
		for c < n4 {
			done, kept := pruneAVX2(k, &x[0], len(x)/3, &row[c], n4-c, xi, yi, zi, &out[m])
			c, m = c+done, m+kept
			if c < n4 {
				m = k.rowRef(out, m, x, row[c:c+4], xi, yi, zi)
				c += 4
			}
		}
	}
	return k.rowRef(out, m, x, row[c:], xi, yi, zi)
}

// rowRef stores in out[m:] the candidates of row within the list radius of
// the atom at (xi, yi, zi), in row order, and returns m plus their count:
// the reference the kernels must equal, and the path of a host without
// AVX2. Each candidate is stored and the fill advanced only past the
// accepted ones, so the accept test is not a branch.
//
//mlmd:hotpath
func (k *pruneKernel) rowRef(out []int32, m int, x []float64, row []int32, xi, yi, zi float64) int {
	out = out[m : m+len(row)]
	n := 0
	for _, j := range row {
		dx := k.px.MinImage(xi - x[3*j])
		dy := k.py.MinImage(yi - x[3*j+1])
		dz := k.pz.MinImage(zi - x[3*j+2])
		out[n] = j
		if dx*dx+dy*dy+dz*dz <= k.r2 {
			n++
		}
	}
	return m + n
}
