package shard

import (
	"errors"
	"fmt"
	"testing"

	"mlmd/internal/cluster"
	"mlmd/internal/shard/halo"
)

// TestGridEngineSteadyStateAllocs pins the grid path's steady-state
// allocation budget at zero — and keeps it there across the checkpoint
// boundary: a GatherField between runs must not knock the step loop off
// its pooled buffers.
func TestGridEngineSteadyStateAllocs(t *testing.T) {
	cfg := identityFixtures["fdtd"].grid
	cfg.Grid = [3]int{2, 2, 1}
	eng, err := NewGridEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	run := func() {
		if _, err := eng.Run(5); err != nil {
			panic(err)
		}
	}
	gather := func() {
		dst := make([]float64, cfg.N[0]*cfg.N[1]*cfg.N[2]*3)
		for idx := 0; idx < 2; idx++ {
			if err := eng.GatherField(idx, dst); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	gather()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("steady-state Run allocates %.1f objects per call", avg)
	}
	gather()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Fatalf("Run allocates %.1f objects per call after a GatherField boundary", avg)
	}
}

// TestNewGridEngineErrors exercises the fail-fast configuration checks.
func TestNewGridEngineErrors(t *testing.T) {
	ok := identityFixtures["fdtd"].grid
	ok.Grid = [3]int{2, 1, 1}
	cases := []struct {
		name string
		mut  func(*GridConfig)
	}{
		{"zero grid", func(c *GridConfig) { c.Grid = [3]int{} }},
		{"no factory", func(c *GridConfig) { c.NewWork = nil }},
		{"thin axis", func(c *GridConfig) { c.Grid = [3]int{1, 1, 16} }},
		{"workload error", func(c *GridConfig) {
			c.NewWork = func(rank int, d halo.Domain) (GridWorkload, error) {
				return nil, fmt.Errorf("boom")
			}
		}},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mut(&cfg)
		if _, err := NewGridEngine(cfg); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// Mismatched communicator size and out-of-range local rank.
	comm, err := cluster.NewComm(2, cluster.Interconnect{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ok
	cfg.Grid = [3]int{4, 1, 1}
	cfg.Comm = comm
	if _, err := NewGridEngine(cfg); err == nil {
		t.Error("communicator size mismatch: no error")
	}
	cfg = ok
	cfg.Comm = comm
	cfg.LocalRank = 7
	if _, err := NewGridEngine(cfg); err == nil {
		t.Error("local rank out of range: no error")
	}
}

// deadWork is a GridWorkload whose Step panics the way a rank's transport
// does when it loses a peer.
type deadWork struct{ lost int }

func (w deadWork) Step(*halo.Exchanger)                   { panic(&cluster.RankFailedError{Rank: w.lost}) }
func (deadWork) PartialLen() int                          { return 1 }
func (deadWork) Partials([]float64)                       {}
func (deadWork) NumFields() int                           { return 1 }
func (deadWork) FieldWidth(int) int                       { return 1 }
func (deadWork) PackField(_ int, buf []float64) []float64 { return buf }

// TestGridEngineLatchesRankFailure: a rank failure inside a step surfaces
// from Run as the typed error naming the lost rank, Err latches it, and
// later collectives short-circuit with it instead of hanging.
func TestGridEngineLatchesRankFailure(t *testing.T) {
	eng, err := NewGridEngine(GridConfig{
		Grid: [3]int{2, 1, 1}, N: [3]int{4, 4, 4}, Ghost: 1,
		NewWork: func(int, halo.Domain) (GridWorkload, error) { return deadWork{lost: 3}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	lost := func(err error) int {
		var rf *cluster.RankFailedError
		if !errors.As(err, &rf) {
			return -1
		}
		return rf.Rank
	}
	if _, err := eng.Run(1); lost(err) != 3 {
		t.Fatalf("Run returned %v, want the rank-3 failure", err)
	}
	if lost(eng.Err()) != 3 {
		t.Fatalf("Err() = %v, want the latched rank-3 failure", eng.Err())
	}
	if _, err := eng.Run(1); lost(err) != 3 {
		t.Errorf("post-failure Run returned %v", err)
	}
	if err := eng.GatherField(0, make([]float64, 64)); lost(err) != 3 {
		t.Errorf("post-failure GatherField returned %v", err)
	}
}
