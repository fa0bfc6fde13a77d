package cluster

import "testing"

func TestGrid3DRoundTrip(t *testing.T) {
	for _, p := range [][3]int{{1, 1, 1}, {2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {2, 2, 1}, {2, 2, 2}, {4, 2, 3}} {
		g, err := NewGrid3D(p[0], p[1], p[2])
		if err != nil {
			t.Fatal(err)
		}
		if g.Size() != p[0]*p[1]*p[2] {
			t.Fatalf("grid %v size %d", p, g.Size())
		}
		for r := 0; r < g.Size(); r++ {
			cx, cy, cz := g.Coords(r)
			if cx < 0 || cx >= p[0] || cy < 0 || cy >= p[1] || cz < 0 || cz >= p[2] {
				t.Fatalf("grid %v rank %d coords (%d,%d,%d) out of range", p, r, cx, cy, cz)
			}
			if got := g.Rank(cx, cy, cz); got != r {
				t.Fatalf("grid %v rank %d -> (%d,%d,%d) -> %d", p, r, cx, cy, cz, got)
			}
		}
	}
}

func TestGrid3DSlabCompatibility(t *testing.T) {
	// Slab-along-x numbering must reduce to rank == cx, the PR 2 layout.
	g, err := NewGrid3D(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		cx, cy, cz := g.Coords(r)
		if cx != r || cy != 0 || cz != 0 {
			t.Fatalf("slab rank %d maps to (%d,%d,%d)", r, cx, cy, cz)
		}
	}
}

func TestGrid3DAxisNeighbors(t *testing.T) {
	g, err := NewGrid3D(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.Size(); r++ {
		cx, cy, cz := g.Coords(r)
		for axis := 0; axis < 3; axis++ {
			minus, plus := g.AxisNeighbors(r, axis)
			mx, my, mz := g.Coords(minus)
			px, py, pz := g.Coords(plus)
			c := [3]int{cx, cy, cz}
			m := [3]int{mx, my, mz}
			pl := [3]int{px, py, pz}
			p := g.P[axis]
			for a := 0; a < 3; a++ {
				if a == axis {
					if m[a] != (c[a]-1+p)%p || pl[a] != (c[a]+1)%p {
						t.Fatalf("rank %d axis %d wrong ring step: %v %v %v", r, axis, c, m, pl)
					}
				} else if m[a] != c[a] || pl[a] != c[a] {
					t.Fatalf("rank %d axis %d neighbor leaves other axis: %v %v %v", r, axis, c, m, pl)
				}
			}
			if p == 1 && (minus != r || plus != r) {
				t.Fatalf("rank %d axis %d single-rank axis should self-neighbor", r, axis)
			}
		}
	}
	if _, err := NewGrid3D(0, 1, 1); err == nil {
		t.Error("accepted zero-rank axis")
	}
}
