package bench

import "testing"

func TestAblationDSAWarmStart(t *testing.T) {
	res, cold, warm, err := AblationDSAWarmStart(16, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: cold %v (%d sweeps), warm %v (%d sweeps), speedup %.1fx",
		res.Name, res.Baseline, cold, res.Variant, warm, res.SpeedupOrOverhead)
	// Amortization must buy a clear factor over converging from scratch.
	// A sweep costs the same on both paths, so the sweep ratio is the
	// speedup's deterministic cause; a clock ratio flaked under parallel
	// tests.
	if cold < 2*warm {
		t.Errorf("warm start saved only %d of %d sweeps over cold DSA", cold-warm, cold)
	}
}

func TestAblationScissorPrecision(t *testing.T) {
	res, err := AblationScissorPrecision(10, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: FP64 %v, BF16 %v, overhead %.2fx", res.Name, res.Baseline, res.Variant, res.SpeedupOrOverhead)
	// Software quantization costs something but must stay within ~4x.
	if res.SpeedupOrOverhead > 4 {
		t.Errorf("BF16 emulation overhead %gx too large", res.SpeedupOrOverhead)
	}
}

func TestAblationBlockInference(t *testing.T) {
	res, memFull, memBlocked, err := AblationBlockInference(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: full %v, blocked %v (%.2fx), memory %d -> %d bytes",
		res.Name, res.Baseline, res.Variant, res.SpeedupOrOverhead, memFull, memBlocked)
	if memBlocked >= memFull {
		t.Error("blocking did not reduce the memory estimate")
	}
	// Blocking costs little time (it is the same work in two batches).
	if res.SpeedupOrOverhead > 3 {
		t.Errorf("blocked inference overhead %gx too large", res.SpeedupOrOverhead)
	}
}

func BenchmarkAblationDSAWarmStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := AblationDSAWarmStart(16, 3); err != nil {
			b.Fatal(err)
		}
	}
}
