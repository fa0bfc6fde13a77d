// Package rank is the rank runtime every engine of a process runs on: one
// parked goroutine per hosted rank slot, an integer op dispatched to every
// slot at once, and a latch that turns a transport rank failure into an
// error instead of a crash.
//
// Ranks block on collectives (a Gather waits for every rank of the
// communicator), so they must all run concurrently; the par pool schedules
// independent tasks and guarantees no such thing. This package is therefore
// the one place outside internal/par and the transport that starts
// rank-lifecycle goroutines.
package rank

import (
	"sync"

	"mlmd/internal/cluster"
)

// Runtime hosts a fixed set of rank slots. Dispatch and Close must be
// called from one driver goroutine; the slot goroutines run only between a
// dispatch and its return, so outside those windows the driver owns every
// slot's memory.
type Runtime struct {
	exec func(slot, op int)
	cmd  []chan int
	wg   sync.WaitGroup
	once sync.Once

	mu  sync.Mutex
	err error
}

// Start parks one goroutine per slot. exec(slot, op) is the work of one
// slot for one dispatched op; binding it once here is what keeps Dispatch
// allocation-free.
func Start(slots int, exec func(slot, op int)) *Runtime {
	rt := &Runtime{exec: exec, cmd: make([]chan int, slots)}
	for i := range rt.cmd {
		rt.cmd[i] = make(chan int, 1)
		//lint:allow poolonly one long-lived goroutine per hosted rank; ranks block on collectives so the pool cannot host them
		go rt.loop(i, rt.cmd[i])
	}
	return rt
}

// loop is one slot's goroutine: run each dispatched op, signal completion,
// and exit when Close closes the command channel.
func (rt *Runtime) loop(slot int, cmd <-chan int) {
	for op := range cmd {
		rt.run(slot, op)
		rt.wg.Done()
	}
	rt.wg.Done()
}

// run executes one op on one slot, latching a transport rank-failure panic
// (a dead peer of a multi-process run; see cluster.RankFailedError) so the
// dispatch completes and the driver call returns. Any other panic
// propagates.
func (rt *Runtime) run(slot, op int) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		rf, ok := cluster.AsRankFailure(r)
		if !ok {
			panic(r)
		}
		rt.mu.Lock()
		if rt.err == nil {
			rt.err = rf
		}
		rt.mu.Unlock()
	}()
	rt.exec(slot, op)
}

// Dispatch runs op on every slot and waits for all of them. Remote ranks of
// a multi-process run receive the same op from their own process; the
// collectives inside the op synchronize them.
func (rt *Runtime) Dispatch(op int) {
	rt.wg.Add(len(rt.cmd))
	for _, ch := range rt.cmd {
		ch <- op
	}
	rt.wg.Wait()
}

// Err returns the first rank failure any slot latched (nil while the mesh
// is healthy). Once non-nil the distributed state is unrecoverable in
// place: the driver should stop and restart from a checkpoint.
func (rt *Runtime) Err() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

// Close stops the slot goroutines and returns once they have exited. It is
// safe after a failure and a no-op when called again; the runtime must not
// dispatch afterwards.
func (rt *Runtime) Close() {
	rt.once.Do(func() {
		rt.wg.Add(len(rt.cmd))
		for _, ch := range rt.cmd {
			close(ch)
		}
		rt.wg.Wait()
	})
}
