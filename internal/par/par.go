// Package par is the process-wide parallel runtime shared by every hot
// kernel in mlmd: a persistent worker pool with a data-parallel For loop,
// a task fan-out Do, and per-worker scratch arenas. It replaces the ad-hoc
// per-call `sync.WaitGroup` + `go func` fan-outs that the seed hand-rolled
// in linalg, md, allegro, tddft, and core, so exactly one place owns the
// worker-count policy, chunking, and panic propagation.
//
// Design notes:
//
//   - Workers are long-lived goroutines parked on a channel; a For call
//     costs a few atomics and channel sends, never a goroutine spawn.
//   - Chunks are claimed dynamically through an atomic cursor, so uneven
//     work (e.g. neighbor rows with varying occupancy) load-balances.
//   - For is allocation-free in steady state: job descriptors come from a
//     free list, and the workers<=1 path invokes fn inline so single-core
//     hosts pay nothing. Callers that need 0 allocs/op must also cache
//     their closures (see internal/md for the pattern).
//   - Nested For calls are safe: helpers are announced with a non-blocking
//     send and the caller always participates, so progress never depends
//     on a free pool worker.
//
// The worker count defaults to GOMAXPROCS and can be overridden with the
// MLMD_WORKERS environment variable (useful both to pin benchmark runs and
// to exercise the concurrent paths on single-core CI boxes).
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// MaxWorkers is the hard cap on pool size; Scratch slots are sized to it.
const MaxWorkers = 256

// The pool hands work to parked workers through fungible wake tokens plus
// a queue of jobs wanting help. Tokens carry no state, so a stale token
// (sent for a job that finished before any worker woke) is harmless — the
// woken worker finds the queue empty and re-parks. Jobs are removed from
// the queue by their caller at completion, so only workers that actually
// arrived ever hold a reference and descriptors recycle promptly (For
// stays allocation-free in steady state).
var (
	workCh   = make(chan struct{}, MaxWorkers)
	pendMu   sync.Mutex
	pendQ    []*job
	nWorkers atomic.Int32
	spawned  int
	spawnMu  sync.Mutex
)

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("MLMD_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			n = v
		}
	}
	SetWorkers(n)
}

// Workers returns the current worker-count policy.
func Workers() int { return int(nWorkers.Load()) }

// SetWorkers sets the worker-count policy, clamped to [1, MaxWorkers], and
// returns the previous value. Raising the count spawns parked goroutines;
// lowering it leaves the extras idle (they cost nothing while parked).
// Intended for program start and tests.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	if n > MaxWorkers {
		n = MaxWorkers
	}
	prev := int(nWorkers.Swap(int32(n)))
	spawnMu.Lock()
	for spawned < n-1 {
		spawned++
		go workerLoop()
	}
	spawnMu.Unlock()
	return prev
}

func workerLoop() {
	for range workCh {
		for {
			j := stealJob()
			if j == nil {
				break
			}
			j.participate()
		}
	}
}

// stealJob joins the oldest pending job that still has participant slots,
// taking a reference under the queue lock so the job cannot be recycled
// before this worker is done with it. Exhausted jobs are pruned in passing.
//
//mlmd:hotpath
func stealJob() *job {
	pendMu.Lock()
	defer pendMu.Unlock()
	for len(pendQ) > 0 {
		j := pendQ[0]
		if j.seq.Load() >= j.parts {
			copy(pendQ, pendQ[1:])
			pendQ = pendQ[:len(pendQ)-1]
			continue
		}
		j.refs.Add(1)
		return j
	}
	return nil
}

// enqueueJob publishes a job for workers to steal.
func enqueueJob(j *job) {
	pendMu.Lock()
	pendQ = append(pendQ, j)
	pendMu.Unlock()
}

// dequeueJob withdraws a job so no further worker can join; workers that
// already joined keep their references.
func dequeueJob(j *job) {
	pendMu.Lock()
	for i, x := range pendQ {
		if x == j {
			copy(pendQ[i:], pendQ[i+1:])
			pendQ = pendQ[:len(pendQ)-1]
			break
		}
	}
	pendMu.Unlock()
}

// job is the shared state of one For invocation. Jobs are recycled through
// a free list; refs counts the announced participants that still hold the
// pointer, wg counts unfinished chunks.
type job struct {
	fn       func(lo, hi, worker int)
	n, grain int
	parts    int32
	next     atomic.Int64
	seq      atomic.Int32
	refs     atomic.Int32
	abort    atomic.Bool
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicVal any
}

var jobFree struct {
	mu   sync.Mutex
	list []*job
}

func getJob() *job {
	jobFree.mu.Lock()
	defer jobFree.mu.Unlock()
	if n := len(jobFree.list); n > 0 {
		j := jobFree.list[n-1]
		jobFree.list = jobFree.list[:n-1]
		return j
	}
	return &job{}
}

func putJob(j *job) {
	j.fn = nil
	jobFree.mu.Lock()
	jobFree.list = append(jobFree.list, j)
	jobFree.mu.Unlock()
}

// release drops one participant reference, recycling the job when the last
// holder lets go.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		putJob(j)
	}
}

// participate claims a worker slot and runs chunks until the cursor is
// exhausted. Called by pool workers; For inlines the same loop for the
// caller.
//
//mlmd:hotpath
func (j *job) participate() {
	if id := int(j.seq.Add(1)) - 1; id < int(j.parts) {
		j.loop(id)
	}
	j.release()
}

//mlmd:hotpath
func (j *job) loop(id int) {
	for {
		c := int(j.next.Add(1)) - 1
		lo := c * j.grain
		if lo >= j.n {
			return
		}
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		if j.abort.Load() {
			// A sibling panicked: drain remaining chunks so wg completes.
			j.wg.Done()
			continue
		}
		j.runChunk(lo, hi, id)
	}
}

//mlmd:hotpath
func (j *job) runChunk(lo, hi, id int) {
	defer j.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			j.panicMu.Lock()
			if j.panicVal == nil {
				j.panicVal = r
			}
			j.panicMu.Unlock()
			j.abort.Store(true)
		}
	}()
	j.fn(lo, hi, id)
}

// For runs fn over the index range [0, n) split into chunks of size grain,
// distributed across the worker pool. fn(lo, hi, worker) processes indices
// [lo, hi); worker is a dense id in [0, Workers()) unique among concurrent
// participants of this call, suitable for indexing a Scratch.
//
// The caller always participates, chunks are claimed dynamically in
// ascending order, and the call returns only when every chunk has run.
// With one worker (or one chunk) the chunks run inline on the caller's
// goroutine — the serial path and the parallel path execute the same code
// on the same chunk boundaries. If any fn invocation panics, remaining chunks are skipped
// and the first panic value is re-raised on the caller's goroutine.
//
//mlmd:hotpath
func For(n, grain int, fn func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	nchunks := (n + grain - 1) / grain
	workers := Workers()
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi, 0)
		}
		return
	}
	j := getJob()
	j.fn, j.n, j.grain = fn, n, grain
	j.parts = int32(workers)
	j.next.Store(0)
	j.seq.Store(0)
	j.abort.Store(false)
	j.panicVal = nil
	j.wg.Add(nchunks)
	j.refs.Store(1) // the caller's reference
	enqueueJob(j)
	for i := 0; i < workers-1; i++ {
		select {
		case workCh <- struct{}{}:
		default:
			// Every worker already has a wake token pending; tokens are
			// fungible, so more would be redundant.
		}
	}
	if id := int(j.seq.Add(1)) - 1; id < int(j.parts) {
		j.loop(id)
	}
	// All chunks are claimed (the cursor is exhausted); withdraw the job so
	// no new worker joins, then wait for in-flight chunks.
	dequeueJob(j)
	j.wg.Wait()
	pv := j.panicVal
	j.release()
	if pv != nil {
		panic(pv)
	}
}
