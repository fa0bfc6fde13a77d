package shard

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// bruteRows is the rank neighbor list by definition: for every owned atom,
// every other local atom (owned or ghost) within cutoff+skin by the
// min-image formula itself, sorted by global id.
func bruteRows(v *View, cutoff, skin float64) [][]int32 {
	r := cutoff + skin
	minImage := func(d, l float64) float64 { return d - l*math.Round(d/l) }
	rows := make([][]int32, v.NOwn)
	for i := range rows {
		for j := 0; j < v.NLoc; j++ {
			dx := minImage(v.X[3*i]-v.X[3*j], v.Lx)
			dy := minImage(v.X[3*i+1]-v.X[3*j+1], v.Ly)
			dz := minImage(v.X[3*i+2]-v.X[3*j+2], v.Lz)
			if j != i && dx*dx+dy*dy+dz*dz <= r*r {
				rows[i] = append(rows[i], int32(j))
			}
		}
		slices.SortFunc(rows[i], func(a, b int32) int { return cmp.Compare(v.ID[a], v.ID[b]) })
	}
	return rows
}

// TestBuildMatchesLinkedCellReferenceOnBalancedGrid: the rank list equals its
// definition on what the engine really builds it from — owned atoms plus
// ghosts gathered over two partitioned axes, on a hot-spot density whose cut
// planes have moved — and no interior row the engine kept holds a ghost.
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
			for _, j := range rs.nl.Rows(0, rs.nInt) {
				if int(j) >= rs.nOwn {
					t.Fatalf("round %d rank %d: interior rows hold ghost %d", round, rs.rank, j)
				}
			}
			// The list in hand was built at the last rebuild; rebuild it on
			// the current view so list and coordinates belong together.
			rs.nl.BuildOwned(rs.v.Sys, rs.v.ID, rs.v.NOwn)
			for i, want := range bruteRows(&rs.v, testCutoff, testSkin) {
				if got := rs.nl.Row(i); !slices.Equal(got, want) {
					t.Fatalf("round %d rank %d: row %d = %v, reference %v", round, rs.rank, i, got, want)
				}
			}
		}
		for _, rs := range eng.rs {
			rs.needRebuild = true // the lists above are ahead of refX
		}
	}
	if rebalances, maxShift := eng.BalanceStats(); rebalances == 0 || maxShift <= 0 {
		t.Fatalf("cut planes never moved (%d rebalances, max shift %g)", rebalances, maxShift)
	}
}
