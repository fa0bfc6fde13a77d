package halo_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mlmd/internal/cluster"
	"mlmd/internal/shard/halo"
)

// gval is the decomposition-invariant marker value of global cell
// (gx,gy,gz) component c on an n lattice with cc components.
func gval(n [3]int, cc, gx, gy, gz, c int) float64 {
	return float64((((gx*n[1]+gy)*n[2]+gz)*cc + c) + 1)
}

// wrapi folds i into [0, n).
func wrapi(i, n int) int {
	i %= n
	if i < 0 {
		i += n
	}
	return i
}

// whole is the read set of a whole face refresh.
var whole = halo.Reads{Sides: halo.Both, Comps: halo.AllComps}

func mustGrid(t *testing.T, p [3]int) cluster.Grid3D {
	t.Helper()
	g, err := cluster.NewGrid3D(p[0], p[1], p[2])
	if err != nil {
		t.Fatalf("grid %v: %v", p, err)
	}
	return g
}

// runRanks drives fn concurrently on every rank of g over one in-process
// communicator.
func runRanks(t *testing.T, g cluster.Grid3D, fn func(rank int, comm *cluster.Comm)) {
	t.Helper()
	comm, err := cluster.NewComm(g.Size(), cluster.Interconnect{})
	if err != nil {
		t.Fatalf("comm: %v", err)
	}
	var wg sync.WaitGroup
	for r := 0; r < g.Size(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(r, comm)
		}(r)
	}
	wg.Wait()
}

func fillOwned(f *halo.GridField) {
	d := f.D
	for ox := 0; ox < d.Own[0]; ox++ {
		for oy := 0; oy < d.Own[1]; oy++ {
			for oz := 0; oz < d.Own[2]; oz++ {
				base := f.OwnIndex(ox, oy, oz)
				for c := 0; c < f.C; c++ {
					f.Data[base+c] = gval(d.N, f.C, d.Off[0]+ox, d.Off[1]+oy, d.Off[2]+oz, c)
				}
			}
		}
	}
}

func TestNewDomainSplit(t *testing.T) {
	g := mustGrid(t, [3]int{2, 3, 1})
	n := [3]int{7, 8, 3}
	// Every axis must tile exactly, offsets ascending, remainder first.
	covered := map[[3]int]int{}
	for r := 0; r < g.Size(); r++ {
		d, err := halo.NewDomain(g, r, n, 1, false)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		for a := 0; a < 3; a++ {
			if d.Own[a] < 1 || d.Off[a] < 0 || d.Off[a]+d.Own[a] > n[a] {
				t.Fatalf("rank %d axis %d: own=%d off=%d", r, a, d.Own[a], d.Off[a])
			}
		}
		for ox := 0; ox < d.Own[0]; ox++ {
			for oy := 0; oy < d.Own[1]; oy++ {
				for oz := 0; oz < d.Own[2]; oz++ {
					covered[[3]int{d.Off[0] + ox, d.Off[1] + oy, d.Off[2] + oz}]++
				}
			}
		}
	}
	if len(covered) != n[0]*n[1]*n[2] {
		t.Fatalf("covered %d cells, want %d", len(covered), n[0]*n[1]*n[2])
	}
	for cell, cnt := range covered {
		if cnt != 1 {
			t.Fatalf("cell %v owned %d times", cell, cnt)
		}
	}
}

func TestNewDomainEvenAligned(t *testing.T) {
	g := mustGrid(t, [3]int{3, 1, 1})
	for r := 0; r < 3; r++ {
		d, err := halo.NewDomain(g, r, [3]int{10, 4, 2}, 1, true)
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		for a := 0; a < 3; a++ {
			if d.Off[a]%2 != 0 || d.Own[a]%2 != 0 {
				t.Fatalf("rank %d axis %d not even-aligned: off=%d own=%d", r, a, d.Off[a], d.Own[a])
			}
		}
	}
	if _, err := halo.NewDomain(g, 0, [3]int{9, 4, 2}, 1, true); err == nil {
		t.Fatal("odd dim accepted for even-aligned split")
	}
}

func TestNewDomainErrors(t *testing.T) {
	g := mustGrid(t, [3]int{4, 1, 1})
	if _, err := halo.NewDomain(g, 0, [3]int{8, 8, 8}, 0, false); err == nil {
		t.Fatal("ghost width 0 accepted")
	}
	if _, err := halo.NewDomain(g, 0, [3]int{3, 8, 8}, 1, false); err == nil {
		t.Fatal("3 cells over 4 ranks accepted")
	}
	if _, err := halo.NewDomain(g, 0, [3]int{8, 0, 8}, 1, false); err == nil {
		t.Fatal("empty axis accepted")
	}
	if _, err := halo.NewDomain(g, 0, [3]int{6, 8, 8}, 2, true); err == nil {
		t.Fatal("even split below ghost width accepted")
	}
}

// TestGridFieldRefreshGlobalValues is the halo-correctness property test:
// owned cells carry their global-index marker value, and after a
// corner-forwarding Refresh every local cell — owned, face, edge, and
// corner ghosts — must hold the periodic global value of the cell it
// mirrors, on every grid shape and ghost width.
func TestGridFieldRefreshGlobalValues(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {2, 2, 1}, {2, 2, 2}, {3, 2, 1}}
	n := [3]int{6, 5, 4}
	for _, ghost := range []int{1, 2} {
		for _, shape := range shapes {
			g := mustGrid(t, shape)
			var mu sync.Mutex
			fail := ""
			runRanks(t, g, func(rank int, comm *cluster.Comm) {
				d, err := halo.NewDomain(g, rank, n, ghost, false)
				if err != nil {
					mu.Lock()
					fail = err.Error()
					mu.Unlock()
					return
				}
				f := halo.NewGridField(d, 2)
				f.Corners = true
				fillOwned(f)
				ex := halo.NewExchanger(comm, g, rank)
				f.Refresh(ex)
				for ix := 0; ix < f.Ext[0]; ix++ {
					for iy := 0; iy < f.Ext[1]; iy++ {
						for iz := 0; iz < f.Ext[2]; iz++ {
							gx := wrapi(d.Off[0]+ix-ghost, n[0])
							gy := wrapi(d.Off[1]+iy-ghost, n[1])
							gz := wrapi(d.Off[2]+iz-ghost, n[2])
							base := f.Index(ix, iy, iz)
							for c := 0; c < f.C; c++ {
								want := gval(n, f.C, gx, gy, gz, c)
								if f.Data[base+c] != want {
									mu.Lock()
									if fail == "" {
										fail = "rank " + string(rune('0'+rank)) + ": ghost mismatch"
									}
									mu.Unlock()
									return
								}
							}
						}
					}
				}
			})
			if fail != "" {
				t.Fatalf("ghost %d shape %v: %s", ghost, shape, fail)
			}
		}
	}
}

// TestGridFieldFaceRefresh checks the default (face-only) refresh fills
// every face ghost slab, and that the split PostAxis/FinishAxis path is
// bitwise identical to RefreshAxis.
func TestGridFieldFaceRefresh(t *testing.T) {
	shape := [3]int{2, 2, 1}
	n := [3]int{6, 4, 3}
	g := mustGrid(t, shape)
	var mu sync.Mutex
	fail := false
	runRanks(t, g, func(rank int, comm *cluster.Comm) {
		d, err := halo.NewDomain(g, rank, n, 1, false)
		if err != nil {
			t.Error(err)
			return
		}
		f := halo.NewGridField(d, 1)
		fillOwned(f)
		f2 := halo.NewGridField(d, 1)
		fillOwned(f2)
		ex := halo.NewExchanger(comm, g, rank)
		for a := 0; a < 3; a++ {
			f.RefreshAxis(ex, a)
			f2.PostAxis(ex, a, whole)
			f2.FinishAxis(ex, a)
		}
		bad := false
		for i, v := range f.Data {
			if math.Float64bits(v) != math.Float64bits(f2.Data[i]) {
				bad = true
			}
		}
		// Face ghost slabs along each axis (transverse owned range) must
		// mirror the periodic neighbor planes.
		for a := 0; a < 3; a++ {
			for p := 0; p < 1; p++ {
				for u := 0; u < d.Own[(a+1)%3]; u++ {
					for v := 0; v < d.Own[(a+2)%3]; v++ {
						var loc, glob [3]int
						loc[a] = p
						loc[(a+1)%3] = u + 1
						loc[(a+2)%3] = v + 1
						for b := 0; b < 3; b++ {
							glob[b] = wrapi(d.Off[b]+loc[b]-1, n[b])
						}
						if f.Data[f.Index(loc[0], loc[1], loc[2])] != gval(n, 1, glob[0], glob[1], glob[2], 0) {
							bad = true
						}
					}
				}
			}
		}
		if bad {
			mu.Lock()
			fail = true
			mu.Unlock()
		}
	})
	if fail {
		t.Fatal("face refresh mismatch")
	}
}

// TestGridFieldCRefreshGlobalValues runs the same global-value property
// for the complex field: the (real, imag) wire codec must round-trip
// bits exactly through every transport hop.
func TestGridFieldCRefreshGlobalValues(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 1}, {2, 2, 2}}
	n := [3]int{6, 4, 4}
	for _, shape := range shapes {
		g := mustGrid(t, shape)
		var mu sync.Mutex
		fail := false
		runRanks(t, g, func(rank int, comm *cluster.Comm) {
			d, err := halo.NewDomain(g, rank, n, 1, true)
			if err != nil {
				t.Error(err)
				return
			}
			f := halo.NewGridFieldC(d, 2)
			f.Corners = true
			for ox := 0; ox < d.Own[0]; ox++ {
				for oy := 0; oy < d.Own[1]; oy++ {
					for oz := 0; oz < d.Own[2]; oz++ {
						base := f.OwnIndex(ox, oy, oz)
						for c := 0; c < f.C; c++ {
							v := gval(n, f.C, d.Off[0]+ox, d.Off[1]+oy, d.Off[2]+oz, c)
							f.Data[base+c] = complex(v, -v/3)
						}
					}
				}
			}
			ex := halo.NewExchanger(comm, g, rank)
			f.Refresh(ex)
			for ix := 0; ix < f.Ext[0]; ix++ {
				for iy := 0; iy < f.Ext[1]; iy++ {
					for iz := 0; iz < f.Ext[2]; iz++ {
						gx := wrapi(d.Off[0]+ix-1, n[0])
						gy := wrapi(d.Off[1]+iy-1, n[1])
						gz := wrapi(d.Off[2]+iz-1, n[2])
						base := f.Index(ix, iy, iz)
						for c := 0; c < f.C; c++ {
							v := gval(n, f.C, gx, gy, gz, c)
							want := complex(v, -v/3)
							got := f.Data[base+c]
							if math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
								math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
								mu.Lock()
								fail = true
								mu.Unlock()
								return
							}
						}
					}
				}
			}
		})
		if fail {
			t.Fatalf("shape %v: complex ghost mismatch", shape)
		}
	}
}

// TestGridFieldReadSets refreshes one axis at a time under read sets of
// one side or both and of some components or all, on every grid shape and
// ghost width, over ghosts poisoned with NaN: every ghost the read set
// names must hold the periodic value of the cell it mirrors, and every
// other ghost must still hold NaN. A refresh writes what its read set
// names and nothing else.
func TestGridFieldReadSets(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {2, 2, 1}, {2, 2, 2}, {3, 2, 1}}
	n := [3]int{6, 5, 4}
	sets := []halo.Reads{
		{Sides: halo.Minus, Comps: 0b110},
		{Sides: halo.Plus, Comps: 0b101},
		{Sides: halo.Both, Comps: 0b010},
		{Sides: halo.Plus, Comps: halo.AllComps},
		{Sides: halo.Both, Comps: 0},
		whole,
	}
	for _, ghost := range []int{1, 2} {
		for _, shape := range shapes {
			g := mustGrid(t, shape)
			for _, r := range sets {
				for axis := 0; axis < 3; axis++ {
					var mu sync.Mutex
					fail := ""
					runRanks(t, g, func(rank int, comm *cluster.Comm) {
						d, err := halo.NewDomain(g, rank, n, ghost, false)
						if err != nil {
							t.Error(err)
							return
						}
						f := halo.NewGridField(d, 3)
						for i := range f.Data {
							f.Data[i] = math.NaN()
						}
						fillOwned(f)
						ex := halo.NewExchanger(comm, g, rank)
						f.PostAxis(ex, axis, r)
						f.FinishAxis(ex, axis)
						if msg := checkReadSet(f, axis, r); msg != "" {
							mu.Lock()
							fail = msg
							mu.Unlock()
						}
					})
					if fail != "" {
						t.Fatalf("ghost %d shape %v axis %d reads %+v: %s", ghost, shape, axis, r, fail)
					}
				}
			}
		}
	}
}

// checkReadSet returns a description of the first cell of f that a
// refresh of axis under r left wrong, or "".
func checkReadSet(f *halo.GridField, axis int, r halo.Reads) string {
	d, g := f.D, f.D.Ghost
	for ix := 0; ix < f.Ext[0]; ix++ {
		for iy := 0; iy < f.Ext[1]; iy++ {
			for iz := 0; iz < f.Ext[2]; iz++ {
				loc := [3]int{ix, iy, iz}
				owned, named := true, true
				for b := 0; b < 3; b++ {
					in := loc[b] >= g && loc[b] < g+d.Own[b]
					owned = owned && in
					if b != axis {
						named = named && in
					}
				}
				switch {
				case loc[axis] < g:
					named = named && r.Sides&halo.Minus != 0
				case loc[axis] >= g+d.Own[axis]:
					named = named && r.Sides&halo.Plus != 0
				default:
					named = false
				}
				base := f.Index(ix, iy, iz)
				for c := 0; c < f.C; c++ {
					want := math.NaN()
					if owned || named && r.Comps>>c&1 != 0 {
						want = gval(d.N, f.C, wrapi(d.Off[0]+ix-g, d.N[0]), wrapi(d.Off[1]+iy-g, d.N[1]), wrapi(d.Off[2]+iz-g, d.N[2]), c)
					}
					if got := f.Data[base+c]; math.Float64bits(got) != math.Float64bits(want) {
						return fmt.Sprintf("rank at %v: cell %v component %d holds %v, want %v", d.Coord, loc, c, got, want)
					}
				}
			}
		}
	}
	return ""
}

func TestUnpackCheckedRejectsForgedFrames(t *testing.T) {
	g := mustGrid(t, [3]int{1, 1, 1})
	d, err := halo.NewDomain(g, 0, [3]int{4, 4, 4}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	f := halo.NewGridField(d, 2)
	fc := halo.NewGridFieldC(d, 1)
	good := make([]float64, f.FrameLen(0, 0))
	if err := f.UnpackChecked(0, 0, good); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	if err := f.UnpackChecked(0, 0, good[:len(good)-1]); err != halo.ErrFrameLen {
		t.Fatalf("short frame: got %v", err)
	}
	if err := f.UnpackChecked(3, 0, good); err != halo.ErrBadAxis {
		t.Fatalf("axis 3: got %v", err)
	}
	if err := f.UnpackChecked(0, 2, good); err != halo.ErrBadAxis {
		t.Fatalf("side 2: got %v", err)
	}
	goodC := make([]float64, fc.FrameLen(2, 1))
	if err := fc.UnpackChecked(2, 1, goodC); err != nil {
		t.Fatalf("valid complex frame rejected: %v", err)
	}
	if err := fc.UnpackChecked(2, 1, append(goodC, 0)); err != halo.ErrFrameLen {
		t.Fatalf("long complex frame: got %v", err)
	}
	if err := fc.UnpackChecked(-1, 0, goodC); err != halo.ErrBadAxis {
		t.Fatalf("axis -1: got %v", err)
	}
}

// TestExchangerBytesSent pins the byte accounting the bench lane reports:
// one face exchange moves 2 slabs × slab floats × 8 bytes per rank, and a
// one-sided refresh of two components of three moves one slab of those.
func TestExchangerBytesSent(t *testing.T) {
	shape := [3]int{2, 1, 1}
	n := [3]int{4, 3, 3}
	g := mustGrid(t, shape)
	for _, tc := range []struct {
		c    int
		r    halo.Reads
		want int64
	}{
		{1, whole, 2 * 2 * 3 * 3 * 8},                                      // 2 ranks × 2 sides × 3×3 slab × 8 B
		{3, halo.Reads{Sides: halo.Plus, Comps: 0b101}, 2 * 3 * 3 * 2 * 8}, // 2 ranks × 1 side × 3×3 slab × 2 components × 8 B
	} {
		var total int64
		var mu sync.Mutex
		runRanks(t, g, func(rank int, comm *cluster.Comm) {
			d, _ := halo.NewDomain(g, rank, n, 1, false)
			f := halo.NewGridField(d, tc.c)
			ex := halo.NewExchanger(comm, g, rank)
			f.PostAxis(ex, 0, tc.r)
			f.FinishAxis(ex, 0)
			mu.Lock()
			total += ex.BytesSent()
			mu.Unlock()
		})
		if total != tc.want {
			t.Fatalf("%d components, reads %+v: bytes sent %d, want %d", tc.c, tc.r, total, tc.want)
		}
	}
}

// TestRefreshSteadyStateAllocs pins the pooled-frame contract at the
// field level: once warmed, a refresh allocates nothing.
func TestRefreshSteadyStateAllocs(t *testing.T) {
	shape := [3]int{2, 2, 1}
	n := [3]int{6, 6, 4}
	g := mustGrid(t, shape)
	comm, err := cluster.NewComm(g.Size(), cluster.Interconnect{})
	if err != nil {
		t.Fatal(err)
	}
	fields := make([]*halo.GridField, g.Size())
	exs := make([]*halo.Exchanger, g.Size())
	for r := 0; r < g.Size(); r++ {
		d, err := halo.NewDomain(g, r, n, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		fields[r] = halo.NewGridField(d, 3)
		fields[r].Corners = true
		fillOwned(fields[r])
		exs[r] = halo.NewExchanger(comm, g, r)
	}
	// Persistent rank goroutines, so AllocsPerRun (process-global) sees
	// only the refresh itself, not goroutine spawns.
	start := make([]chan struct{}, g.Size())
	done := make(chan struct{}, g.Size())
	for r := 0; r < g.Size(); r++ {
		start[r] = make(chan struct{})
		go func(r int) {
			for range start[r] {
				fields[r].Refresh(exs[r])
				done <- struct{}{}
			}
		}(r)
	}
	defer func() {
		for _, c := range start {
			close(c)
		}
	}()
	refreshAll := func() {
		for _, c := range start {
			c <- struct{}{}
		}
		for range start {
			<-done
		}
	}
	for i := 0; i < 5; i++ {
		refreshAll() // warm the pooled frames
	}
	if avg := testing.AllocsPerRun(20, refreshAll); avg != 0 {
		t.Fatalf("refresh allocates %.1f objects/op; pooled frames regressed", avg)
	}
}

// TestExchangerRingOrder pins the raw ring protocol on a two-rank axis,
// where both neighbors are the same peer: the frame sent toward plus is
// the first one the peer receives, so it arrives as the peer's
// "from minus" frame — the FIFO pairing every field exchange builds on.
// The accessors the engines route through are pinned alongside.
func TestExchangerRingOrder(t *testing.T) {
	g := mustGrid(t, [3]int{2, 1, 1})
	var mu sync.Mutex
	runRanks(t, g, func(rank int, comm *cluster.Comm) {
		ex := halo.NewExchanger(comm, g, rank)
		mu.Lock()
		if ex.Rank() != rank {
			t.Errorf("Rank() = %d, want %d", ex.Rank(), rank)
		}
		if ex.Grid().P != g.P {
			t.Errorf("Grid().P = %v, want %v", ex.Grid().P, g.P)
		}
		if ex.Comm() != comm {
			t.Error("Comm() does not return the wired communicator")
		}
		if !ex.Partitioned(0) || ex.Partitioned(1) || ex.Partitioned(2) {
			t.Errorf("Partitioned = %v %v %v, want true false false",
				ex.Partitioned(0), ex.Partitioned(1), ex.Partitioned(2))
		}
		mu.Unlock()
		sm := []float64{float64(rank)*10 + 1}
		sp := []float64{float64(rank)*10 + 2}
		rm, rp := ex.Ring(0, sm, sp)
		other := float64(1 - rank)
		mu.Lock()
		defer mu.Unlock()
		if rm[0] != other*10+2 {
			t.Errorf("rank %d: from-minus frame = %v, want the peer's plus-bound %v", rank, rm[0], other*10+2)
		}
		if rp[0] != other*10+1 {
			t.Errorf("rank %d: from-plus frame = %v, want the peer's minus-bound %v", rank, rp[0], other*10+1)
		}
	})
}

// TestGridFieldCAxisRefresh drives the complex field through the split
// PostAxis/FinishAxis pair, the single-axis RefreshAxis, the Exchange
// convenience wrapper, and PackOwned — the exact call set ShardProp and
// the gather path use — and checks the face ghosts and the packed owned
// frame against the global marker field.
func TestGridFieldCAxisRefresh(t *testing.T) {
	n := [3]int{6, 4, 4}
	g := mustGrid(t, [3]int{2, 1, 1})
	var mu sync.Mutex
	runRanks(t, g, func(rank int, comm *cluster.Comm) {
		d, err := halo.NewDomain(g, rank, n, 1, true)
		if err != nil {
			t.Error(err)
			return
		}
		f := halo.NewGridFieldC(d, 2)
		fillC := func() {
			for ox := 0; ox < d.Own[0]; ox++ {
				for oy := 0; oy < d.Own[1]; oy++ {
					for oz := 0; oz < d.Own[2]; oz++ {
						base := f.OwnIndex(ox, oy, oz)
						for c := 0; c < f.C; c++ {
							v := gval(n, f.C, d.Off[0]+ox, d.Off[1]+oy, d.Off[2]+oz, c)
							f.Data[base+c] = complex(v, -v/3)
						}
					}
				}
			}
		}
		fillC()
		ex0 := halo.NewExchanger(comm, g, rank)
		f.PostAxis(ex0, 0, whole)
		f.FinishAxis(ex0, 0)
		f.RefreshAxis(ex0, 1)
		f.PostAxis(ex0, 2, whole) // unpartitioned: completes immediately
		f.FinishAxis(ex0, 2)

		checkFace := func(axis int) {
			for side := 0; side < 2; side++ {
				// One ghost cell per face, centered in the other axes.
				idx := [3]int{1, 1, 1}
				off := [3]int{d.Off[0], d.Off[1], d.Off[2]}
				if side == 0 {
					idx[axis] = 0
				} else {
					idx[axis] = f.Ext[axis] - 1
				}
				gx := wrapi(off[0]+idx[0]-1, n[0])
				gy := wrapi(off[1]+idx[1]-1, n[1])
				gz := wrapi(off[2]+idx[2]-1, n[2])
				base := f.Index(idx[0], idx[1], idx[2])
				for c := 0; c < f.C; c++ {
					v := gval(n, f.C, gx, gy, gz, c)
					want := complex(v, -v/3)
					if got := f.Data[base+c]; got != want {
						mu.Lock()
						t.Errorf("rank %d axis %d side %d: ghost = %v, want %v", rank, axis, side, got, want)
						mu.Unlock()
						return
					}
				}
			}
		}
		for a := 0; a < 3; a++ {
			checkFace(a)
		}

		// Exchange on the partitioned axis reproduces the same ghosts.
		f2 := halo.NewGridFieldC(d, 2)
		for i := range f2.Data {
			f2.Data[i] = f.Data[i]
		}
		ex0.Exchange(f2, 0)

		owned := f.PackOwned(nil)
		if len(owned) != d.Len()*f.C*2 {
			mu.Lock()
			t.Errorf("rank %d: PackOwned holds %d floats, want %d", rank, len(owned), d.Len()*f.C*2)
			mu.Unlock()
		}
		v0 := gval(n, f.C, d.Off[0], d.Off[1], d.Off[2], 0)
		if owned[0] != v0 || owned[1] != -v0/3 {
			mu.Lock()
			t.Errorf("rank %d: PackOwned[0:2] = %v %v, want %v %v", rank, owned[0], owned[1], v0, -v0/3)
			mu.Unlock()
		}
	})
}
