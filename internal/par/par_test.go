package par

import (
	"sync/atomic"
	"testing"
)

// withWorkers runs f under a forced worker count, restoring the previous
// policy afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetWorkers(n)
	defer SetWorkers(prev)
	f()
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		for _, grain := range []int{1, 3, 64, 1000} {
			withWorkers(t, workers, func() {
				const n = 537
				var hits [n]atomic.Int32
				For(n, grain, func(lo, hi, w int) {
					if w < 0 || w >= workers {
						t.Errorf("worker id %d out of [0,%d)", w, workers)
					}
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("bad chunk [%d,%d)", lo, hi)
					}
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
				})
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("workers=%d grain=%d: index %d visited %d times", workers, grain, i, got)
					}
				}
			})
		}
	}
}

func TestForEmptyAndDegenerate(t *testing.T) {
	withWorkers(t, 4, func() {
		calls := 0
		For(0, 8, func(lo, hi, w int) { calls++ })
		For(-3, 8, func(lo, hi, w int) { calls++ })
		if calls != 0 {
			t.Fatalf("empty ranges invoked fn %d times", calls)
		}
		// grain > n collapses to one inline chunk on worker 0.
		For(5, 100, func(lo, hi, w int) {
			calls++
			if lo != 0 || hi != 5 || w != 0 {
				t.Fatalf("grain>n chunk = [%d,%d) on worker %d", lo, hi, w)
			}
		})
		if calls != 1 {
			t.Fatalf("grain>n invoked fn %d times", calls)
		}
		// grain <= 0 is treated as 1.
		n := 0
		For(3, 0, func(lo, hi, w int) { n += hi - lo })
		if n != 3 {
			t.Fatalf("grain=0 covered %d of 3", n)
		}
	})
}

func TestForSingleWorkerRunsInline(t *testing.T) {
	withWorkers(t, 1, func() {
		// The worker<=1 fallback must run fn on the calling goroutine:
		// writing without synchronization is race-clean only if inline.
		x := 0
		For(10, 3, func(lo, hi, w int) { x += hi - lo })
		if x != 10 {
			t.Fatalf("inline path covered %d of 10", x)
		}
	})
}

func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			For(100, 1, func(lo, hi, w int) {
				if lo == 42 {
					panic("boom")
				}
			})
			t.Fatalf("workers=%d: For returned instead of panicking", workers)
		})
	}
}

func TestForPoolSurvivesPanic(t *testing.T) {
	withWorkers(t, 4, func() {
		func() {
			defer func() { recover() }()
			For(64, 1, func(lo, hi, w int) { panic(lo) })
		}()
		// The pool must still work after a panicking job.
		var n atomic.Int32
		For(64, 1, func(lo, hi, w int) { n.Add(int32(hi - lo)) })
		if n.Load() != 64 {
			t.Fatalf("post-panic For covered %d of 64", n.Load())
		}
	})
}

func TestNestedFor(t *testing.T) {
	withWorkers(t, 4, func() {
		var total atomic.Int32
		For(8, 1, func(lo, hi, w int) {
			For(8, 1, func(lo2, hi2, w2 int) {
				total.Add(1)
			})
		})
		if total.Load() != 64 {
			t.Fatalf("nested For ran %d of 64 inner chunks", total.Load())
		}
	})
}

func TestScratch(t *testing.T) {
	withWorkers(t, 4, func() {
		built := atomic.Int32{}
		s := NewScratch(func() *[]int {
			built.Add(1)
			b := make([]int, 0, 8)
			return &b
		})
		For(100, 1, func(lo, hi, w int) {
			buf := s.Get(w)
			*buf = append(*buf, lo)
		})
		if built.Load() > 4 {
			t.Fatalf("built %d scratch slots for 4 workers", built.Load())
		}
		total := 0
		seen := map[int]bool{}
		for w := range s.slots {
			v := s.slots[w].Load()
			if v == nil {
				continue
			}
			total += len(*v)
			for _, lo := range *v {
				if seen[lo] {
					t.Fatalf("chunk %d recorded twice", lo)
				}
				seen[lo] = true
			}
		}
		if total != 100 {
			t.Fatalf("scratch slots recorded %d of 100 chunks", total)
		}
		// Slots persist across calls (steady-state reuse).
		before := built.Load()
		For(10, 1, func(lo, hi, w int) { s.Get(w) })
		if built.Load() != before {
			t.Fatalf("second For rebuilt scratch slots")
		}
	})
}

func TestSetWorkersClamps(t *testing.T) {
	prev := SetWorkers(0)
	if Workers() != 1 {
		t.Fatalf("SetWorkers(0) -> %d, want 1", Workers())
	}
	SetWorkers(MaxWorkers + 10)
	if Workers() != MaxWorkers {
		t.Fatalf("SetWorkers(max+10) -> %d, want %d", Workers(), MaxWorkers)
	}
	SetWorkers(prev)
}

func TestForSteadyStateAllocs(t *testing.T) {
	withWorkers(t, 4, func() {
		var sink atomic.Int64
		fn := func(lo, hi, w int) { sink.Add(int64(hi - lo)) }
		// Warm the job free list to its equilibrium depth (stragglers from
		// call k can briefly hold job k while call k+1 allocates).
		for i := 0; i < 32; i++ {
			For(1024, 64, fn)
		}
		allocs := testing.AllocsPerRun(100, func() {
			For(1024, 64, fn)
		})
		if allocs > 0 {
			t.Errorf("steady-state For allocates %.1f allocs/op, want 0", allocs)
		}
	})
}

func BenchmarkForOverhead(b *testing.B) {
	fn := func(lo, hi, w int) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		For(1<<16, 1<<12, fn)
	}
}
