package main

import (
	"fmt"
	"io"
	"sort"

	"mlmd/internal/par"
)

// perLayer lists every per-layer metric with its unit, in print order.
// exact marks counts that repeat exactly for one (seed, -seconds): the
// compare mode fails when they differ between two sets of runs. A metric
// of a layer the workload does not touch reads 0.
var perLayer = []struct {
	name, unit string
	exact      bool
}{
	{"par.dispatch_ns", "ns", false},
	{"linalg.gemm64_gflops", "GF/s", false},
	{"linalg.cgemm_gflops", "GF/s", false},
	{"linalg.flops_per_step", "flop/step", true},
	{"allegro.eval_us_per_atom", "us/atom", false},
	{"allegro.step_share", "share", false},
	{"md.nbr_build_ms", "ms", false},
	{"md.lj_force_ms", "ms", false},
	{"shard.rebuild_share", "share", true},
	{"shard.rebuild_wall_share", "share", false},
	{"shard.migrated_per_rebuild", "atoms", true},
	{"shard.rank_compute_ms", "ms/step", false},
	{"shard.imbalance", "ratio", false},
	{"shard.overhead_vs_serial", "ratio", false},
	{"halo.bytes_per_step", "B/step", true},
	{"halo.refresh_us", "us", false},
	{"maxwell.cell_updates_per_s", "1/s", false},
	{"maxwell.bytes_per_step_computed", "B/step", true},
	{"cluster.msgs_per_step", "msg/step", true},
	{"cluster.bytes_per_step", "B/step", true},
	{"cluster.msg_us_chan", "us", false},
	{"cluster.msg_us_sock", "us", false},
	{"cluster.modeled_comm_s_per_step", "s/step", true},
	{"cluster.transport_share", "share", false},
	{"mlmdio.ckpt_write_ms", "ms", false},
	{"mlmdio.ckpt_bytes", "B", true},
	{"mlmdio.ckpt_mb_per_s", "MB/s", false},
	{"mlmdio.ckpt_wall_share", "share", false},
	{"tddft.qd_step_us_per_orbital", "us/orbital", false},
	{"dc.scf_ms_per_domain", "ms", false},
	{"core.t2s_s_per_electron_qdstep", "s/el/qdstep", false},
	{"heap_mb", "MB", false},
	{"allocs_per_step", "obj/step", false},
	{"trace.overhead_pct", "%", false},
}

// serialBaseline returns the median per-step milliseconds of the workload's
// one-rank decomposition on a one-worker pool — the single-threaded run of
// the same problem. 0 when the workload has no serial variant.
func serialBaseline(w *workload, p params, dispatches int) (float64, error) {
	defer par.SetWorkers(par.SetWorkers(1))
	ref, err := w.open(p, nil, true)
	if err != nil || ref == nil {
		return 0, err
	}
	defer ref.close()
	lg := loop(ref, nil, 0, dispatches)
	if lg.err != nil {
		return 0, lg.err
	}
	return percentile(perStepMs(lg.durs, w.w), 50), nil
}

// runTrace is the -trace 1 run: the workload at a fixed length in
// alternating traced and untraced blocks (their rate difference is the
// tracing overhead), then the standalone probes and the single-threaded
// baseline. It fills every per-layer metric.
func runTrace(w *workload, p params, seconds float64, spansPath string, out io.Writer) result {
	res := result{Metrics: map[string]metric{}, Attempted: 1}
	fail := func(err error) result {
		fmt.Fprintf(out, "FAIL %s: %v\n", w.name, err)
		res.Failed = res.Attempted
		return res
	}
	dispatches := int(float64(w.traceDispatchesPerSecond) * seconds)
	if dispatches < traceBlocks {
		dispatches = traceBlocks
	}
	tr := newTracer(w.name, dispatches*3+64)
	traced, err := runFixed(w, p, tr, dispatches)
	if err != nil {
		return fail(err)
	}
	res.Attempted = dispatches
	steps := float64(dispatches * w.w)

	m := traced.layer
	sendElems := int(m["cluster.median_send_elems"])
	probes, err := runProbes(p, tr, sendElems)
	if err != nil {
		return fail(err)
	}
	for k, v := range probes {
		if _, fromRun := m[k]; !fromRun { // a count taken in the run beats the standalone probe
			m[k] = v
		}
	}
	serialMs, err := serialBaseline(w, p, min(dispatches, 4*w.verifyDispatches))
	if err != nil {
		return fail(fmt.Errorf("serial baseline: %w", err))
	}

	// Numbers from the traced dispatch log: what share of the time went
	// to dispatches with a rebuild, and what steady dispatches allocate.
	lg := traced.lg
	var rebuildSec, totalSec float64
	var steadyAllocs uint64
	steadySteps := 0
	for i, d := range lg.durs {
		totalSec += d
		if lg.rebuild[i] {
			rebuildSec += d
		}
		if !lg.rebuild[i] && !lg.ckpt[i] {
			steadyAllocs += lg.allocs[i]
			steadySteps += w.w
		}
	}
	stepMs := traced.stepMsP50
	m["shard.rebuild_wall_share"] = rebuildSec / totalSec
	m["linalg.flops_per_step"] = float64(traced.flops) / steps
	m["heap_mb"] = traced.heapMB
	if steadySteps > 0 {
		m["allocs_per_step"] = float64(steadyAllocs) / float64(steadySteps)
	}
	m["trace.overhead_pct"] = 100 * (stepMs - traced.plainStepMsP50) / traced.plainStepMsP50
	if serialMs > 0 {
		m["shard.overhead_vs_serial"] = stepMs / serialMs
	}
	if w == nnAllegro {
		c := allegroCells(p.tiny)
		evalMs := m["allegro.eval_us_per_atom"] * float64(4*c[0]*c[1]*c[2]) / 1e3
		m["allegro.step_share"] = evalMs / stepMs
	}

	for _, pl := range perLayer {
		res.Metrics[pl.name] = metric{Value: m[pl.name], Unit: pl.unit}
	}
	res.Correct = true

	fmt.Fprintf(out, "trace   %-12s %s, %d steps in %d dispatches; step_ms_p50 %.6g in traced blocks, %.6g in untraced blocks\n",
		w.name, w.size(p.tiny), int(steps), dispatches, stepMs, traced.plainStepMsP50)
	for _, pl := range perLayer {
		mark := ""
		if pl.exact {
			mark = " ="
		}
		fmt.Fprintf(out, "  %-32s %14.6g %s%s\n", pl.name, m[pl.name], pl.unit, mark)
	}
	self := tr.selfTotals()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "  span self time (s):")
	for _, name := range names {
		fmt.Fprintf(out, " %s=%.4f/%d", name, self[name].self, self[name].n)
	}
	fmt.Fprintln(out)
	if spansPath != "" {
		if err := tr.writeFile(spansPath); err != nil {
			return fail(fmt.Errorf("write spans: %w", err))
		}
	}
	return res
}
