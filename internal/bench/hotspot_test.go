package bench

import (
	"strings"
	"testing"
)

// TestShardHotSpotSmoke runs a miniature static-vs-balanced sweep and
// checks its invariants: paired points per shape, the static workload
// imbalanced by >= 30 % on some shape (the hot-spot workload contract),
// balanced points reporting controller activity with cut shifts bounded by
// the halo (cutoff 2.0 + skin 0.3), and the table rendering both modes.
func TestShardHotSpotSmoke(t *testing.T) {
	shapes := [][3]int{{2, 1, 1}, {2, 2, 1}}
	points, err := ShardHotSpot(shapes, 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(shapes) {
		t.Fatalf("got %d points for %d shapes, want static+balanced pairs", len(points), len(shapes))
	}
	const halo = 2.0 + 0.3
	worstStatic := 0.0
	for i, pt := range points {
		wantBalanced := i%2 == 1
		if pt.Balanced != wantBalanced {
			t.Fatalf("point %d: balanced = %v, want %v (pairing broken)", i, pt.Balanced, wantBalanced)
		}
		if pt.Balanced {
			if pt.Rebalances < 1 {
				t.Errorf("%s balanced: controller never fired", pt.Grid)
			}
			if pt.MaxCutShift > halo+1e-12 {
				t.Errorf("%s balanced: cut shift %g above halo %g", pt.Grid, pt.MaxCutShift, halo)
			}
			if pt.StepImbalanceVsStatic <= 0 {
				t.Errorf("%s balanced: missing imbalance ratio vs static", pt.Grid)
			}
		} else {
			if pt.Rebalances != 0 || pt.MaxCutShift != 0 {
				t.Errorf("%s static: reports balancing activity (%d, %g)", pt.Grid, pt.Rebalances, pt.MaxCutShift)
			}
			if pt.OwnedImbalance > worstStatic {
				worstStatic = pt.OwnedImbalance
			}
		}
		if pt.NsPerStep <= 0 || pt.StepImbalance <= 0 {
			t.Errorf("%s: empty measurement %+v", pt.Grid, pt)
		}
	}
	if worstStatic < 1.3 {
		t.Errorf("worst static owned imbalance %.3f — the hot-spot workload must exceed 30 %%", worstStatic)
	}
	table := HotSpotTable(points)
	if !strings.Contains(table, "balanced") || !strings.Contains(table, "static") {
		t.Errorf("table missing modes:\n%s", table)
	}
}
