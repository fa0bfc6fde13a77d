package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"mlmd/internal/allegro"
	"mlmd/internal/md"
)

// BenchmarkShardStep measures one decomposed MD step at each rank count on
// the same fixed-size LJ problem (strong scaling).
func BenchmarkShardStep(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			base := fccLJSystem(b, 9, 1e-3, 1)
			eng, err := NewEngine(Config{
				Grid: [3]int{p, 1, 1}, Cutoff: testCutoff, Skin: testSkin,
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
				Grid: [3]int{p, 1, 1}, Cutoff: testCutoff, Skin: testSkin,
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
			Grid: [3]int{p, 1, 1}, Cutoff: 2.0, Skin: 0.3,
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

// allegroBenchSystem is the gated benchmark's nn.allegro system: a 1024-atom
// two-species fcc crystal (8x8x4 cells, a = 2.6, 2 % displacements) under an
// untrained [96,96] model with batched FP64 inference at the default block.
func allegroBenchSystem(b *testing.B) (*md.System, *allegro.Model) {
	const a = 2.6
	c := [3]int{8, 8, 4}
	sys, err := md.NewSystem(4*c[0]*c[1]*c[2], float64(c[0])*a, float64(c[1])*a, float64(c[2])*a)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	basis := [4][3]float64{{0, 0, 0}, {0.5, 0.5, 0}, {0.5, 0, 0.5}, {0, 0.5, 0.5}}
	i := 0
	for cx := 0; cx < c[0]; cx++ {
		for cy := 0; cy < c[1]; cy++ {
			for cz := 0; cz < c[2]; cz++ {
				for _, o := range basis {
					sys.X[3*i] = (float64(cx)+o[0])*a + 0.04*a*(rng.Float64()-0.5)
					sys.X[3*i+1] = (float64(cy)+o[1])*a + 0.04*a*(rng.Float64()-0.5)
					sys.X[3*i+2] = (float64(cz)+o[2])*a + 0.04*a*(rng.Float64()-0.5)
					sys.Mass[i] = 30
					sys.Type[i] = i % 2
					i++
				}
			}
		}
	}
	sys.Wrap()
	sys.InitVelocities(1e-4, 2)
	model, err := allegro.NewModel(allegro.DescriptorSpec{Cutoff: 2.5, NRadial: 5, NSpecies: 2}, []int{96, 96}, 13)
	if err != nil {
		b.Fatal(err)
	}
	model.BlockSize = allegro.DefaultBatchBlock
	return sys, model
}

// BenchmarkShardAllegroStep measures the nn.allegro workload's layers on its
// own system: Engine is one decomposed MD step at 2x1x1 (the gated
// benchmark's grid and dt, so ns/op tracks shard.rank_compute_ms and
// steps_per_s), Global one unsharded Model.ComputeForces (the
// allegro.eval_us_per_atom probe).
func BenchmarkShardAllegroStep(b *testing.B) {
	b.Run("Engine", func(b *testing.B) {
		sys, model := allegroBenchSystem(b)
		eng, err := NewEngine(Config{
			Grid: [3]int{2, 1, 1}, Cutoff: model.Spec.Cutoff, Skin: 0.3,
			NewFF: AllegroFactory(model),
		}, sys)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		eng.Run(2, 0.1, 0, 0) // prime + settle
		b.ReportAllocs()
		b.ResetTimer()
		eng.Run(b.N, 0.1, 0, 0)
	})
	b.Run("Global", func(b *testing.B) {
		sys, model := allegroBenchSystem(b)
		model.ComputeForces(sys)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			model.ComputeForces(sys)
		}
		b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*sys.N), "us/atom")
	})
}
