package shard

import "testing"

// TestRunCheckpointedMatchesRun: chunked checkpointed execution IS the
// plain Run bitwise — including a final partial chunk — and a disabled
// checkpoint cadence degrades to Run exactly.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	base := fccLJSystem(t, 5, 1e-3, 6)
	cfg := Config{
		Cutoff: testCutoff, Skin: testSkin,
		NewFF: LJFactory(testEps, testSigma),
	}
	const steps, dt = 130, 2.0
	ref := runGridTrajectory(t, base, cfg, [3]int{2, 1, 1}, steps, dt)

	sys := base.Clone()
	cfg.Grid = [3]int{2, 1, 1}
	eng, err := NewEngine(cfg, sys)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	var steps2 []int
	gathered := sys.Clone()
	if _, err := eng.RunCheckpointed(steps, dt, 0, 0, 40, gathered, func(done int) error {
		steps2 = append(steps2, done)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	eng.Gather(sys)
	assertBitwise(t, [3]int{2, 1, 1}, ref, sys)
	want := []int{40, 80, 120, 130} // 130 is the final partial chunk
	if len(steps2) != len(want) {
		t.Fatalf("checkpoint cadence %v, want %v", steps2, want)
	}
	for i := range want {
		if steps2[i] != want[i] {
			t.Fatalf("checkpoint cadence %v, want %v", steps2, want)
		}
	}
	// The gathered snapshot at the last boundary equals the endpoint.
	assertBitwise(t, [3]int{2, 1, 1}, sys, gathered)
}
