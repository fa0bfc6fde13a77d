package bench

import (
	"strings"
	"testing"
)

// TestRecoverCostSmoke runs one shrink-and-resume trial set at toy scale:
// three slab ranks, one killed at the mid-run snapshot, the survivors
// resuming from a checkpoint on the cadence no later than the kill.
func TestRecoverCostSmoke(t *testing.T) {
	const every = 5
	points, err := RecoverCost([3]int{3, 1, 1}, 6, 20, []int{every})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1", len(points))
	}
	pt := points[0]
	if pt.DetectToResumeNs <= 0 {
		t.Errorf("detect-to-resume latency %g, want > 0", pt.DetectToResumeNs)
	}
	if pt.ResumedStep%every != 0 || pt.ResumedStep > pt.KillAt {
		t.Errorf("resumed at step %d, want a multiple of %d no later than the kill at %d", pt.ResumedStep, every, pt.KillAt)
	}
	if pt.Ranks != 3 || pt.Grid != "3x1x1" || pt.Every != every {
		t.Errorf("point mislabeled: %+v", pt)
	}
	if table := RecoverTable(points); !strings.Contains(table, "detect->resume") {
		t.Errorf("table missing its header:\n%s", table)
	}
}

// TestRecoverCostRejectsBadSweeps: the three argument errors come back
// before anything runs.
func TestRecoverCostRejectsBadSweeps(t *testing.T) {
	for _, tc := range []struct {
		name     string
		grid     [3]int
		steps    int
		cadences []int
		want     string
	}{
		{"one rank", [3]int{1, 1, 1}, 20, []int{5}, "at least 2 ranks"},
		{"cadence too long", [3]int{3, 1, 1}, 9, []int{5}, "does not fit"},
		{"no cadences", [3]int{3, 1, 1}, 20, nil, "no checkpoint cadences"},
	} {
		_, err := RecoverCost(tc.grid, 6, tc.steps, tc.cadences)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
