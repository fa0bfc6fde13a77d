package cluster

import (
	"math"
	"sync"
	"testing"

	"mlmd/internal/precision"
)

func TestDeviceThroughputOrdering(t *testing.T) {
	d := PVCTile()
	fp64 := d.Throughput(KernelGEMM, precision.ModeFP64)
	fp32 := d.Throughput(KernelGEMM, precision.ModeFP32)
	bf16 := d.Throughput(KernelGEMM, precision.ModeBF16)
	if !(fp64 < fp32 && fp32 < bf16) {
		t.Errorf("throughput ordering wrong: %g %g %g", fp64, fp32, bf16)
	}
	// GEMM must sustain far more than stencil (Table V: 94%% vs 15%%).
	if d.Throughput(KernelGEMM, precision.ModeFP32) < 4*d.Throughput(KernelStencil, precision.ModeFP32) {
		t.Error("GEMM/stencil sustained gap too small")
	}
	// BF16x3 costs more than BF16.
	if d.Throughput(KernelGEMM, precision.ModeBF16x3) >= d.Throughput(KernelGEMM, precision.ModeBF16) {
		t.Error("BF16x3 should be slower than BF16")
	}
}

func TestAuroraShape(t *testing.T) {
	m := Aurora()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.MaxRanks() != 120000 {
		t.Errorf("Aurora ranks = %d, want 120000", m.MaxRanks())
	}
	// Full-machine FP64 peak ~2 EFLOP/s (peak, not sustained).
	peak := float64(m.MaxRanks()) * m.Device.PeakFP64
	if peak < 1.8e18 || peak > 3e18 {
		t.Errorf("Aurora peak = %g, want ~2.76 EFLOP/s worth of tiles", peak)
	}
}

func TestInterconnectCosts(t *testing.T) {
	ic := Slingshot11()
	if ic.PointToPoint(0) != ic.Alpha {
		t.Error("zero-byte message should cost alpha")
	}
	// Collective costs grow with P and bytes.
	if !(ic.AllReduce(2, 8) < ic.AllReduce(1024, 8)) {
		t.Error("allreduce should grow with P")
	}
	if !(ic.AllReduce(64, 8) < ic.AllReduce(64, 1<<20)) {
		t.Error("allreduce should grow with bytes")
	}
	if ic.AllReduce(1, 1024) != 0 {
		t.Error("single-rank allreduce should be free")
	}
	if ic.Gather(1, 100) != 0 {
		t.Error("single-rank gather should be free")
	}
}

func TestCommSendRecv(t *testing.T) {
	c, err := NewComm(2, Slingshot11())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.AdvanceClock(0, 1.0)
		c.SendBuf(0, 1, []float64{1, 2, 3})
	}()
	var got []float64
	go func() {
		defer wg.Done()
		got = c.RecvInto(1, 0, nil)
	}()
	wg.Wait()
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("Recv got %v", got)
	}
	// Receiver clock advanced past the sender's send time.
	if c.Clock(1) < 1.0 {
		t.Errorf("receiver clock %g did not advance past message time", c.Clock(1))
	}
}

func TestCommAllReduce(t *testing.T) {
	const p = 4
	c, _ := NewComm(p, Slingshot11())
	var wg sync.WaitGroup
	results := make([][]float64, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c.AdvanceClock(r, float64(r)*0.1) // staggered clocks
			results[r] = []float64{float64(r + 1), 1}
			c.AllReduceSumInPlace(r, results[r])
		}(r)
	}
	wg.Wait()
	for r := 0; r < p; r++ {
		if results[r][0] != 10 || results[r][1] != 4 {
			t.Fatalf("rank %d allreduce got %v", r, results[r])
		}
	}
	// All clocks aligned to the slowest (0.3) plus collective cost.
	for r := 0; r < p; r++ {
		if c.Clock(r) < 0.3 {
			t.Errorf("rank %d clock %g below slowest participant", r, c.Clock(r))
		}
		if math.Abs(c.Clock(r)-c.Clock(0)) > 1e-15 {
			t.Error("clocks not aligned after allreduce")
		}
	}
}

func TestCommGather(t *testing.T) {
	const p = 3
	c, _ := NewComm(p, Slingshot11())
	var wg sync.WaitGroup
	var rootData [][]float64
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res := c.Gather(r, 0, []float64{float64(r * r)})
			if r == 0 {
				rootData = res
			} else if res != nil {
				t.Errorf("non-root rank %d received gather data", r)
			}
		}(r)
	}
	wg.Wait()
	if len(rootData) != p {
		t.Fatalf("root got %d parts", len(rootData))
	}
	for r := 0; r < p; r++ {
		if rootData[r][0] != float64(r*r) {
			t.Errorf("part %d = %v", r, rootData[r])
		}
	}
}

func TestCommBarrierAlignsClocks(t *testing.T) {
	const p = 5
	c, _ := NewComm(p, Slingshot11())
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c.AdvanceClock(r, float64(r))
			c.Barrier(r)
		}(r)
	}
	wg.Wait()
	for r := 1; r < p; r++ {
		if c.Clock(r) != c.Clock(0) {
			t.Fatal("clocks differ after barrier")
		}
	}
	if c.MaxClock() < 4 {
		t.Errorf("barrier lost the slowest clock: %g", c.MaxClock())
	}
}

func paperDCMESH() DCMESHWorkload {
	return DCMESHWorkload{
		Norb: 1024, Grid: 70, NQD: 1000,
		GEMMMode: precision.ModeFP32, StencilMode: precision.ModeFP32,
	}
}

func TestDCMESHWeakScalingEfficiency(t *testing.T) {
	// Fig. 4a: near-perfect weak scaling from 6,144 to 120,000 ranks.
	m := Aurora()
	w := paperDCMESH()
	ranks := []int{6144, 12288, 24576, 49152, 98304, 120000}
	times, eff := WeakScaling(func(p int) float64 { return w.StepTime(m, p) }, ranks)
	t.Logf("weak times: %v", times)
	t.Logf("weak eff:   %v", eff)
	for i, e := range eff {
		if e < 0.97 || e > 1.01 {
			t.Errorf("weak efficiency at P=%d is %g, want ≈ 1", ranks[i], e)
		}
	}
}

func TestDCMESHStrongScalingEfficiencyDecays(t *testing.T) {
	// Fig. 4b: 12.6M electrons, P = 24,576 → 98,304; efficiency ≈ 0.84 at 4×.
	m := Aurora()
	ranks := []int{24576, 49152, 98304}
	const domains = 98304 // fixed by the problem: 12.58M electrons × 8 / 1024
	step := func(p int) float64 {
		w := paperDCMESH()
		w.DomainsPerRank = domains / p
		return w.StepTime(m, p)
	}
	times, eff := StrongScaling(step, ranks)
	t.Logf("strong times: %v  eff: %v", times, eff)
	if !(eff[1] < 1 && eff[2] < eff[1]) {
		t.Errorf("strong efficiency should decay: %v", eff)
	}
	if eff[2] < 0.75 || eff[2] > 0.92 {
		t.Errorf("strong efficiency at 4x ranks = %g, paper-like value ≈ 0.84", eff[2])
	}
}

func TestNNQMDWeakScalingGranularityOrdering(t *testing.T) {
	// Fig. 5a: bigger granularity ⇒ better weak efficiency
	// (0.997 at 10.24M vs 0.957 at 160k atoms/rank).
	m := Aurora()
	ranks := []int{1536, 12288, 49152, 120000}
	effAt := func(apr int) float64 {
		w := DefaultNNQMD(apr)
		_, eff := WeakScaling(func(p int) float64 { return w.StepTime(m, p) }, ranks)
		return eff[len(eff)-1]
	}
	small := effAt(160000)
	large := effAt(10240000)
	t.Logf("weak eff: 160k/rank %g, 10.24M/rank %g", small, large)
	if large < small {
		t.Error("larger granularity should scale at least as well")
	}
	if large < 0.98 {
		t.Errorf("10.24M granularity efficiency %g, want ≈ 0.997", large)
	}
	if small < 0.90 {
		t.Errorf("160k granularity efficiency %g, want ≈ 0.95", small)
	}
}

func TestNNQMDStrongScalingSizeOrdering(t *testing.T) {
	// Fig. 5b: strong-scaling efficiency is much worse for the smaller
	// problem (0.44 at 221.4M atoms vs 0.773 at 984M).
	m := Aurora()
	ranks := []int{8200, 24600, 73800}
	effFor := func(totalAtoms int64) float64 {
		step := func(p int) float64 {
			w := DefaultNNQMD(int(totalAtoms / int64(p)))
			return w.StepTime(m, p)
		}
		_, eff := StrongScaling(step, ranks)
		return eff[len(eff)-1]
	}
	small := effFor(221400000)
	large := effFor(984000000)
	t.Logf("strong eff at 9x ranks: 221M %g, 984M %g", small, large)
	if large <= small {
		t.Error("larger problem should strong-scale better")
	}
	if large < 0.5 {
		t.Errorf("984M strong efficiency %g too low", large)
	}
}

func TestDCMESHElectronAccounting(t *testing.T) {
	// Paper: 1,024 orbitals/domain ÷ 8 overlap × 12 ranks/node × 10,000
	// nodes = 15,360,000 electrons.
	w := paperDCMESH()
	if e := w.Electrons(120000); e != 15360000 {
		t.Errorf("electrons at 120k ranks = %d, want 15,360,000", e)
	}
}

func TestStepTimeMonotoneInWork(t *testing.T) {
	m := Aurora()
	small := DCMESHWorkload{Norb: 256, Grid: 44, NQD: 100, GEMMMode: precision.ModeFP32, StencilMode: precision.ModeFP32}
	big := DCMESHWorkload{Norb: 1024, Grid: 70, NQD: 100, GEMMMode: precision.ModeFP32, StencilMode: precision.ModeFP32}
	if small.StepTime(m, 1000) >= big.StepTime(m, 1000) {
		t.Error("bigger domain should take longer")
	}
	// FP32/BF16 beats FP32 beats FP64 end to end.
	fp64 := big
	fp64.GEMMMode = precision.ModeFP64
	fp64.StencilMode = precision.ModeFP64
	bf16 := big
	bf16.GEMMMode = precision.ModeBF16
	if !(bf16.StepTime(m, 1000) < big.StepTime(m, 1000) && big.StepTime(m, 1000) < fp64.StepTime(m, 1000)) {
		t.Error("precision ladder not reflected in step time")
	}
}
