package par

import "sync/atomic"

// Scratch is a per-worker arena: one lazily constructed *T per worker slot.
// Inside a For body, Get(worker) returns a value owned exclusively by that
// participant for the duration of the call, so hot kernels can reuse
// buffers across calls without locking or per-call allocation.
//
// A Scratch must not be shared by two For calls running concurrently (the
// same worker id would then alias a slot); in mlmd each scratch belongs to
// the data structure whose method runs the loop, which already serializes
// such calls.
type Scratch[T any] struct {
	newFn func() *T
	slots [MaxWorkers]atomic.Pointer[T]
}

// NewScratch returns a Scratch whose slots are built on first use by newFn.
func NewScratch[T any](newFn func() *T) *Scratch[T] {
	return &Scratch[T]{newFn: newFn}
}

// Get returns worker w's slot, constructing it on first use.
func (s *Scratch[T]) Get(w int) *T {
	if p := s.slots[w].Load(); p != nil {
		return p
	}
	p := s.newFn()
	if !s.slots[w].CompareAndSwap(nil, p) {
		return s.slots[w].Load()
	}
	return p
}
