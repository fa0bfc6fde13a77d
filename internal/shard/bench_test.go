package shard

import (
	"fmt"
	"testing"
)

// BenchmarkShardStep measures one decomposed MD step at each rank count on
// the same fixed-size LJ problem (strong scaling). `make bench2` feeds this
// through bench2json into BENCH_PR2.json.
func BenchmarkShardStep(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			base := fccLJSystem(b, 9, 1e-3, 1)
			eng, err := NewEngine(Config{
				Ranks: p, Cutoff: testCutoff, Skin: testSkin,
				NewFF: LJFactory(testEps, testSigma),
			}, base)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			eng.Run(2, 2, 0, 0) // prime + settle
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run(b.N, 2, 0, 0)
			b.StopTimer()
			b.ReportMetric(float64(base.N)*float64(b.N)/b.Elapsed().Seconds(), "atomsteps/s")
		})
	}
}

// BenchmarkShardBridge measures the md.ForceField bridge call (the path
// core.XSNNQMD exercises every step).
func BenchmarkShardBridge(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			base := fccLJSystem(b, 9, 0, 0)
			eng, err := NewEngine(Config{
				Ranks: p, Cutoff: testCutoff, Skin: testSkin,
				NewFF: LJFactory(testEps, testSigma),
			}, base)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			for i := 0; i < 3; i++ {
				eng.ComputeForces(base)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ComputeForces(base)
			}
		})
	}
}

// BenchmarkShardRebuild measures the rebuild event path at the size of the
// gated benchmark's md.lj workload (5324 atoms, cutoff 2.0 + skin 0.3).
// Event/P* is one whole forced rebuild — every rank's needRebuild set, then
// a zero-step dispatch: migrate, classify, halo, neighbor list and the fresh
// force evaluation — so ns/op is ns per rebuild. List/P* is rank 0's
// md.NeighborList.BuildOwned alone on the primed view.
func BenchmarkShardRebuild(b *testing.B) {
	for _, p := range []int{1, 2} {
		base := fccLJSystem(b, 11, 1e-3, 1)
		eng, err := NewEngine(Config{
			Ranks: p, Cutoff: 2.0, Skin: 0.3,
			NewFF: LJFactory(testEps, testSigma),
		}, base)
		if err != nil {
			b.Fatal(err)
		}
		eng.Run(2, 2, 0, 0) // prime + settle
		b.Run(fmt.Sprintf("Event/P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, rs := range eng.rs {
					rs.needRebuild = true
				}
				eng.Run(0, 2, 0, 0)
			}
		})
		b.Run(fmt.Sprintf("List/P%d", p), func(b *testing.B) {
			rs := eng.rs[0]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rs.nl.BuildOwned(rs.v.Sys, rs.v.ID, rs.v.NOwn)
			}
			b.ReportMetric(float64(rs.nl.NumPairs()), "pairs")
		})
		eng.Close()
	}
}
