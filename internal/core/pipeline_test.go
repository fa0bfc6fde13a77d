package core

import (
	"path/filepath"
	"testing"

	"mlmd/internal/mlmdio"
	"mlmd/internal/shard"
)

// TestPipelineSameBitsOnEveryPath: the response ends on the same bits on
// any rank grid, with balancing, with checkpoints written, and resumed
// from the last of them on another grid. The resume runs the NVE path
// (KT 0), since the bath's random stream is not checkpointed.
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

	ref = run(0, func(*Pipeline) {})
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if got := run(0, func(p *Pipeline) { p.Recover = shard.RecoverOpts{Every: 15, Path: ckpt} }); got != ref {
		t.Errorf("checkpointed run: CRC64 %#016x, plain %#016x", got, ref)
	}
	cp, err := mlmdio.ReadCheckpointFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step != 30 {
		t.Fatalf("last checkpoint at step %d, want 30", cp.Step)
	}
	resumed := run(0, func(p *Pipeline) {
		p.Shard.Grid = [3]int{2, 2, 1}
		p.Recover.Resume = cp
	})
	if resumed != ref {
		t.Errorf("resumed run: CRC64 %#016x, uninterrupted %#016x", resumed, ref)
	}
}
