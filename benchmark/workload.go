package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
)

// params is what a workload builds its inputs from. The library only ever
// sees the generated systems and configs, never the seed's meaning.
type params struct {
	seed int64
	// tiny shrinks every workload to a size the package tests run in
	// well under a second; the benchmark itself never sets it.
	tiny bool
	// dir is a scratch directory inside the checkout (checkpoint files,
	// socket rendezvous). Relative, so Unix-socket paths stay short.
	dir string
}

// instance is one constructed, primed engine of a workload.
type instance interface {
	// dispatch issues one call of the workload's W steps into the engine
	// and returns an error when the engine reported one or an observable
	// came back non-finite.
	dispatch() error
	// digest gathers the full distributed state and hashes its float64
	// bits, so two runs (or two decompositions) compare bitwise.
	digest() (uint64, error)
	// check runs the workload's own end-of-run verification.
	check() error
	// layer returns the layer metrics this instance can count from the
	// outside, over the steps dispatched since construction; rs carries
	// the traced run's timings for the ones that are shares or rates.
	layer(rs runStats) map[string]float64
	close()
}

// runStats is what the fixed-length traced run measured around an
// instance's dispatches.
type runStats struct {
	wall      float64 // seconds of all dispatches, loop overhead included
	rate      float64 // steps per second over the traced blocks
	stepMsP50 float64 // median per-step milliseconds of the traced blocks
}

// eventCounter is implemented by instances whose dispatches are not all
// alike: the counts grow when a dispatch contained a neighbor rebuild or a
// checkpoint write, which is how the traced run splits steady steps from
// event steps without looking inside the engine.
type eventCounter interface {
	events() (rebuilds, checkpoints int64)
}

// workload is one fixed input set of the benchmark.
type workload struct {
	name string
	// why is the one line recorded in BENCHMARK.json.
	why string
	// w is the number of engine steps one dispatch advances.
	w int
	// setupReps is how many times set-up is repeated for setup_s.
	setupReps int
	// verifyDispatches is the length of the bitwise comparison against
	// the serial reference; it doubles as the untimed warm-up.
	verifyDispatches int
	// traceDispatchesPerSecond fixes the traced run's length from
	// -seconds alone, so its exact counts repeat on any machine.
	traceDispatchesPerSecond int
	// size describes the problem (atoms, cells, orbitals) so rates can be
	// restated per atom or per electron.
	size func(tiny bool) string
	// open builds inputs from p, constructs the engine and primes it.
	// serial selects the one-rank reference decomposition; a workload
	// without one returns (nil, nil).
	open func(p params, tr *tracer, serial bool) (instance, error)
}

var workloads = []*workload{mdLJ, mdLJCkpt, mpLJSock, nnAllegro, fieldFDTD, qdDCMESH}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// digestFloats folds the IEEE-754 bits of vals into a running CRC64.
func digestFloats(crc uint64, vals []float64) uint64 {
	var buf [8 * 256]byte
	for len(vals) > 0 {
		n := len(vals)
		if n > 256 {
			n = 256
		}
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		crc = crc64.Update(crc, crcTable, buf[:8*n])
		vals = vals[n:]
	}
	return crc
}

func finite(name string, vals ...float64) error {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite %s: %v", name, v)
		}
	}
	return nil
}
