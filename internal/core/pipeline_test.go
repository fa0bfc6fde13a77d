package core

import (
	"path/filepath"
	"testing"

	"mlmd/internal/mlmdio"
	"mlmd/internal/shard"
)

// TestPipelineSameBitsOnEveryPath: the response ends on the same bits on
// any rank grid, with balancing, with checkpoints written, and resumed
// from the last of them on another grid, with the bath on and off.
func TestPipelineSameBitsOnEveryPath(t *testing.T) {
	run := func(kT float64, setup func(p *Pipeline)) uint64 {
		t.Helper()
		cfg := smallPipelineConfig()
		cfg.KT = kT
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		setup(p)
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return p.NN.StateCRC()
	}
	kT := smallPipelineConfig().KT
	ref := run(kT, func(*Pipeline) {})
	for _, sc := range []shard.Config{
		{Grid: [3]int{2, 1, 1}},
		{Grid: [3]int{2, 2, 1}},
		{Grid: [3]int{4, 2, 1}, Balance: true},
	} {
		if got := run(kT, func(p *Pipeline) { p.Shard = sc }); got != ref {
			t.Errorf("grid %v balance %v: CRC64 %#016x, unsharded %#016x", sc.Grid, sc.Balance, got, ref)
		}
	}

	for _, temp := range []float64{0, kT} {
		ref := run(temp, func(*Pipeline) {})
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		if got := run(temp, func(p *Pipeline) { p.Recover = shard.RecoverOpts{Every: 15, Path: ckpt} }); got != ref {
			t.Errorf("kT %g checkpointed run: CRC64 %#016x, plain %#016x", temp, got, ref)
		}
		cp, err := mlmdio.ReadCheckpointFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if cp.Step != 30 {
			t.Fatalf("kT %g: last checkpoint at step %d, want 30", temp, cp.Step)
		}
		resumed := run(temp, func(p *Pipeline) {
			p.Shard.Grid = [3]int{2, 2, 1}
			p.Recover.Resume = cp
		})
		if resumed != ref {
			t.Errorf("kT %g resumed run: CRC64 %#016x, uninterrupted %#016x", temp, resumed, ref)
		}
	}
}
