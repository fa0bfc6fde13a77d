package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"mlmd/internal/linalg"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits lists the gated metrics; BENCHMARK.json carries their
// direction and bound (pinned against this table by the package tests).
var endToEndUnits = map[string]string{
	"steps_per_s": "steps/s",
	"step_ms_p50": "ms",
	"step_ms_p95": "ms",
	"setup_s":     "s",
}

// segments is how many equal parts the timed region is cut into; each
// end-to-end timing is the median of the parts' values.
const segments = 5

// dispatchLog is what the loop keeps per dispatch. Durations are always
// kept; event marks and allocation counts only on the traced run.
type dispatchLog struct {
	durs    []float64 // seconds per dispatch
	rebuild []bool    // a neighbor rebuild fired during the dispatch
	ckpt    []bool    // the dispatch wrote a checkpoint
	allocs  []uint64  // heap objects allocated during the dispatch
	wall    float64   // seconds of the whole region, loop overhead included
	failed  int
	err     error // first failure
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// loop is the closed loop: the next dispatch is issued only when the
// previous one returned, and each is timed from outside. It runs for
// seconds of wall time, or for exactly fixed dispatches when fixed > 0.
// A failed dispatch ends the loop: a failed engine does not recover.
func loop(inst instance, tr *tracer, seconds float64, fixed int) *dispatchLog {
	capHint := fixed
	if capHint == 0 {
		capHint = 1 << 18 // 10 s of 40 µs dispatches; far above any workload here
	}
	lg := &dispatchLog{durs: make([]float64, 0, capHint)}
	ev, _ := inst.(eventCounter)
	var rebuilds, ckpts int64
	var allocs uint64
	if tr != nil {
		lg.rebuild = make([]bool, 0, capHint)
		lg.ckpt = make([]bool, 0, capHint)
		lg.allocs = make([]uint64, 0, capHint)
		if ev != nil {
			rebuilds, ckpts = ev.events()
		}
		allocs = heapAllocs()
	}
	start := time.Now()
	for n := 0; ; n++ {
		sp := tr.begin("dispatch")
		t0 := time.Now()
		err := inst.dispatch()
		d := time.Since(t0)
		tr.end(sp)
		lg.durs = append(lg.durs, d.Seconds())
		if tr != nil {
			a := heapAllocs()
			lg.allocs = append(lg.allocs, a-allocs)
			allocs = a
			r, c := rebuilds, ckpts
			if ev != nil {
				r, c = ev.events()
			}
			lg.rebuild = append(lg.rebuild, r != rebuilds)
			lg.ckpt = append(lg.ckpt, c != ckpts)
			rebuilds, ckpts = r, c
		}
		if err != nil {
			lg.failed++
			lg.err = err
			break
		}
		if fixed > 0 {
			if n+1 >= fixed {
				break
			}
		} else if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	lg.wall = time.Since(start).Seconds()
	return lg
}

// setUp opens the workload reps times, timing build inputs → construct →
// prime, and returns the last instance with every set-up time.
func setUp(w *workload, p params, tr *tracer, reps int) (instance, []float64, error) {
	var inst instance
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.open(p, tr, false)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// verifyAgainstSerial advances inst by the workload's verification length
// and compares its state digest with the one-rank run of the same inputs:
// the stack's bitwise contract, checked on every run. It returns the
// dispatches attempted and failed, and the digest — taken after a fixed
// number of steps, so it is the one to compare between runs of one seed.
func verifyAgainstSerial(w *workload, p params, inst instance, out io.Writer) (attempted, failed int, digest uint64) {
	lg := loop(inst, nil, 0, w.verifyDispatches)
	attempted, failed = len(lg.durs), lg.failed
	if lg.err != nil {
		fmt.Fprintf(out, "FAIL %s: dispatch: %v\n", w.name, lg.err)
		return
	}
	steps := w.verifyDispatches * w.w
	digest, err := inst.digest()
	if err != nil {
		fmt.Fprintf(out, "FAIL %s: gather: %v\n", w.name, err)
		return attempted, failed + 1, 0
	}
	ref, err := w.open(p, nil, true)
	if err != nil {
		fmt.Fprintf(out, "FAIL %s: serial reference: %v\n", w.name, err)
		return attempted, failed + 1, digest
	}
	if ref == nil {
		fmt.Fprintf(out, "verify  %-12s state after %d steps %016x (no serial variant; checked per dispatch)\n", w.name, steps, digest)
		return
	}
	defer ref.close()
	var want uint64
	if rlg := loop(ref, nil, 0, w.verifyDispatches); rlg.err != nil {
		err = rlg.err
	} else {
		want, err = ref.digest()
	}
	switch {
	case err != nil:
		fmt.Fprintf(out, "FAIL %s: serial reference: %v\n", w.name, err)
		failed++
	case digest != want:
		fmt.Fprintf(out, "FAIL %s: state after %d steps %016x differs from the 1-rank run %016x\n", w.name, steps, digest, want)
		failed++
	default:
		fmt.Fprintf(out, "verify  %-12s state after %d steps %016x, bitwise equal to the 1-rank run\n", w.name, steps, digest)
	}
	return
}

// perStepMs converts dispatch seconds to per-step milliseconds.
func perStepMs(durs []float64, w int) []float64 {
	out := make([]float64, len(durs))
	for i, d := range durs {
		out[i] = 1e3 * d / float64(w)
	}
	return out
}

// runEndToEnd is the untraced run: set-up, verification (which is also the
// warm-up), the timed region, and the end-of-run checks. It returns the
// result and the verification digest.
func runEndToEnd(w *workload, p params, seconds float64, out io.Writer) (result, uint64) {
	res := result{Metrics: map[string]metric{}}
	inst, setups, err := setUp(w, p, nil, w.setupReps)
	if err != nil {
		fmt.Fprintf(out, "FAIL %s: %v\n", w.name, err)
		res.Attempted, res.Failed = 1, 1
		return res, 0
	}
	defer inst.close()
	var verified uint64
	res.Attempted, res.Failed, verified = verifyAgainstSerial(w, p, inst, out)
	if res.Failed > 0 {
		return res, 0
	}
	runtime.GC() // start the timed region from a collected heap
	lg := loop(inst, nil, seconds, 0)
	res.Attempted += len(lg.durs)
	res.Failed += lg.failed
	if lg.err != nil {
		fmt.Fprintf(out, "FAIL %s: dispatch: %v\n", w.name, lg.err)
	}
	if err := inst.check(); err != nil {
		fmt.Fprintf(out, "FAIL %s: check: %v\n", w.name, err)
		res.Failed++
	}
	final, err := inst.digest()
	if err != nil {
		fmt.Fprintf(out, "FAIL %s: final gather: %v\n", w.name, err)
		res.Failed++
	}
	res.Correct = res.Failed == 0

	steps := len(lg.durs) * w.w
	rates, p50s, p95s := segmentStats(lg.durs, w.w, segments)
	vals := map[string]float64{
		"steps_per_s": median(rates),
		"step_ms_p50": median(p50s),
		"step_ms_p95": median(p95s),
		"setup_s":     median(setups),
	}
	for name, v := range vals {
		res.Metrics[name] = metric{Value: v, Unit: endToEndUnits[name]}
	}

	fmt.Fprintf(out, "result  %-12s %s, %d steps in %d dispatches of %d, %.3f s, final state %016x\n",
		w.name, w.size(p.tiny), steps, len(lg.durs), w.w, lg.wall, final)
	for _, name := range []string{"steps_per_s", "step_ms_p50", "step_ms_p95", "setup_s"} {
		n := len(lg.durs)
		if name == "setup_s" {
			n = len(setups)
		}
		fmt.Fprintf(out, "  %-12s %14.6g %-8s n=%d\n", name, vals[name], endToEndUnits[name], n)
	}
	ms := perStepMs(lg.durs, w.w)
	fmt.Fprintf(out, "  whole region: %.6g steps/s, p50 %.6g ms, p95 %.6g ms, p99 %.6g ms (printed, not gated)\n",
		float64(steps)/lg.wall, percentile(ms, 50), percentile(ms, 95), percentile(ms, 99))
	q1, _, q3 := quartiles(rates)
	fmt.Fprintf(out, "  steps_per_s over the %d segments: q1 %.6g q3 %.6g\n", len(rates), q1, q3)
	fmt.Fprintf(out, "  failed_ops   %d of %d dispatches\n", res.Failed, res.Attempted)
	return res, verified
}

// tracedRun is the fixed-length run behind the per-layer metrics.
type tracedRun struct {
	// lg is the log of the traced blocks only.
	lg    *dispatchLog
	layer map[string]float64
	flops uint64
	// heapMB is HeapInuse after a forced GC, the engine still alive.
	heapMB float64
	runStats
	// plainStepMsP50 is the median step of the untraced blocks; its
	// difference to stepMsP50 is the tracing overhead.
	plainStepMsP50 float64
}

// traceBlocks is how many alternating traced/untraced blocks the fixed run
// is cut into. Both kinds run on one engine and interleave, so drift
// cancels in the overhead figure; it compares median steps, not rates,
// because the two kinds of block do not hold equally many rebuild steps.
const traceBlocks = 20

// runFixed runs exactly dispatches dispatches on a fresh instance, in
// alternating traced and untraced blocks: spans, event marks and
// allocation counts are kept on the traced blocks only.
func runFixed(w *workload, p params, tr *tracer, dispatches int) (*tracedRun, error) {
	inst, _, err := setUp(w, p, tr, 1)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	runtime.GC()
	linalg.ResetFlops()
	t := &tracedRun{lg: &dispatchLog{}}
	var plain []float64
	for b := 0; b < traceBlocks; b++ {
		n := (b+1)*dispatches/traceBlocks - b*dispatches/traceBlocks
		if n == 0 {
			continue
		}
		if b%2 == 0 {
			tr.paused = false
			lg := loop(inst, tr, 0, n)
			t.lg.durs = append(t.lg.durs, lg.durs...)
			t.lg.rebuild = append(t.lg.rebuild, lg.rebuild...)
			t.lg.ckpt = append(t.lg.ckpt, lg.ckpt...)
			t.lg.allocs = append(t.lg.allocs, lg.allocs...)
			t.lg.wall += lg.wall
			t.lg.err = lg.err
		} else {
			tr.paused = true
			lg := loop(inst, nil, 0, n)
			plain = append(plain, lg.durs...)
			t.wall += lg.wall
			t.lg.err = lg.err
		}
		if t.lg.err != nil {
			return nil, fmt.Errorf("dispatch: %w", t.lg.err)
		}
	}
	tr.paused = false
	t.flops = linalg.ResetFlops()
	t.wall += t.lg.wall
	t.rate = float64(len(t.lg.durs)*w.w) / t.lg.wall
	t.stepMsP50 = percentile(perStepMs(t.lg.durs, w.w), 50)
	t.plainStepMsP50 = percentile(perStepMs(plain, w.w), 50)
	t.layer = inst.layer(t.runStats) // before check, which may write one more checkpoint
	if err := inst.check(); err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	t.heapMB = float64(m.HeapInuse) / 1e6
	return t, nil
}
