package bench

import (
	"strings"
	"testing"
)

// TestShardGridScalingSmoke runs the grid sweep on the 1-rank baseline and
// the 2-rank slab: the baseline's speedup is exactly 1 and every point
// carries its shape and rank count.
func TestShardGridScalingSmoke(t *testing.T) {
	points, err := ShardGridScaling([][3]int{{1, 1, 1}, {2, 1, 1}}, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	for i, want := range []struct {
		grid  string
		ranks int
	}{{"1x1x1", 1}, {"2x1x1", 2}} {
		pt := points[i]
		if pt.Grid != want.grid || pt.Ranks != want.ranks {
			t.Errorf("point %d: grid %q ranks %d, want %q %d", i, pt.Grid, pt.Ranks, want.grid, want.ranks)
		}
		if pt.NsPerStep <= 0 || pt.Speedup <= 0 || pt.Atoms != 4*6*6*6 || pt.Steps != 4 {
			t.Errorf("point %d: degenerate measurement %+v", i, pt)
		}
	}
	if points[0].Speedup != 1 {
		t.Errorf("1x1x1 speedup %g, want exactly 1", points[0].Speedup)
	}
	if table := ShardScalingTable(points); !strings.Contains(table, "2x1x1") {
		t.Errorf("table missing the 2x1x1 row:\n%s", table)
	}
}

// TestShardGridScalingNeedsBaseline: a sweep without the 1x1x1 shape is a
// caller error, not a speedup relabeled onto another shape.
func TestShardGridScalingNeedsBaseline(t *testing.T) {
	_, err := ShardGridScaling([][3]int{{2, 1, 1}}, 6, 4)
	if err == nil || !strings.Contains(err.Error(), "lacks the 1-rank baseline") {
		t.Fatalf("got %v, want the missing-baseline error", err)
	}
}
