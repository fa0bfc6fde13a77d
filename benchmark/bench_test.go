package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func tinyParams(t *testing.T, seed int64) params {
	t.Helper()
	// A short relative scratch directory: Unix-socket paths are capped at
	// ~100 bytes, which t.TempDir() can exceed.
	dir, err := os.MkdirTemp(".", "tmp-test-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return params{seed: seed, tiny: true, dir: dir}
}

// runTiny advances a fresh tiny instance by n dispatches and returns its
// state digest and the exact counts of its layer metrics.
func runTiny(t *testing.T, w *workload, seed int64, n int) (uint64, map[string]float64) {
	t.Helper()
	inst, err := w.open(tinyParams(t, seed), nil, false)
	if err != nil {
		t.Fatalf("%s: open: %v", w.name, err)
	}
	defer inst.close()
	if lg := loop(inst, nil, 0, n); lg.err != nil {
		t.Fatalf("%s: dispatch: %v", w.name, lg.err)
	}
	exact := map[string]float64{}
	layer := inst.layer(runStats{wall: 1, rate: 1, stepMsP50: 1})
	for _, pl := range perLayer {
		if v, ok := layer[pl.name]; ok && pl.exact {
			exact[pl.name] = v
		}
	}
	if err := inst.check(); err != nil {
		t.Fatalf("%s: check: %v", w.name, err)
	}
	d, err := inst.digest()
	if err != nil {
		t.Fatalf("%s: digest: %v", w.name, err)
	}
	return d, exact
}

func TestSameSeedSameDigestAndCounts(t *testing.T) {
	for _, w := range workloads {
		d1, c1 := runTiny(t, w, 1, 12)
		d2, c2 := runTiny(t, w, 1, 12)
		d3, _ := runTiny(t, w, 2, 12)
		if d1 != d2 {
			t.Errorf("%s: same seed gave digests %016x and %016x", w.name, d1, d2)
		}
		if d1 == d3 {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %016x", w.name, d1)
		}
		for name, v := range c1 {
			if c2[name] != v {
				t.Errorf("%s: exact count %s = %v then %v for one seed", w.name, name, v, c2[name])
			}
		}
	}
}

func TestEndToEndRunIsCorrectAndComplete(t *testing.T) {
	for _, w := range workloads {
		var out strings.Builder
		res, digest := runEndToEnd(w, tinyParams(t, 3), 0.02, &out)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", w.name, res.Correct, res.Failed, res.Attempted, out.String())
		}
		if digest == 0 {
			t.Errorf("%s: no verification digest", w.name)
		}
		if len(res.Metrics) != len(endToEndUnits) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(res.Metrics), len(endToEndUnits))
		}
		for name, unit := range endToEndUnits {
			m, ok := res.Metrics[name]
			if !ok || m.Unit != unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.name, name, m, ok, unit)
			}
		}
	}
}

func TestTraceRunFillsEveryLayerMetric(t *testing.T) {
	for _, w := range workloads {
		p := tinyParams(t, 4)
		spans := filepath.Join(p.dir, "spans.json")
		var out strings.Builder
		res := runTrace(w, p, 0.1, spans, &out)
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: traced run failed:\n%s", w.name, out.String())
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		for _, pl := range perLayer {
			m, ok := res.Metrics[pl.name]
			if !ok || m.Unit != pl.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v)", w.name, pl.name, m, ok)
			}
		}
		raw, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		var got []span
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: spans file: %v", w.name, err)
		}
		names := map[string]bool{}
		for i, s := range got {
			names[s.Name] = true
			if s.End < s.Start || s.Parent >= i || s.Workload != w.name {
				t.Fatalf("%s: malformed span %d: %+v", w.name, i, s)
			}
		}
		for _, want := range []string{"new_engine", "dispatch", "probe", "probe.par"} {
			if !names[want] {
				t.Errorf("%s: no %q span", w.name, want)
			}
		}
	}
	// The workload-specific layers read non-zero where they are exercised
	// and zero GEMM flops where the issue predicts none.
	res := runTrace(mpLJSock, tinyParams(t, 4), 0.1, "", io.Discard)
	if res.Metrics["cluster.msgs_per_step"].Value <= 0 || res.Metrics["cluster.transport_share"].Value <= 0 {
		t.Errorf("mp.lj.sock counted no transport traffic: %+v", res.Metrics["cluster.msgs_per_step"])
	}
	if v := res.Metrics["linalg.flops_per_step"].Value; v != 0 {
		t.Errorf("mp.lj.sock ran %v GEMM flops per step, want 0", v)
	}
}

func TestCheckpointDispatchesWriteAndReload(t *testing.T) {
	inst, err := mdLJCkpt.open(tinyParams(t, 5), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	n := 3 * ckptEvery / mdLJCkpt.w
	if lg := loop(inst, nil, 0, n); lg.err != nil {
		t.Fatal(lg.err)
	}
	pi := inst.(*particleInstance)
	if pi.ckptWrites != 3 || pi.ckptBytes == 0 {
		t.Errorf("%d dispatches wrote %d checkpoints of %d bytes, want 3", n, pi.ckptWrites, pi.ckptBytes)
	}
	if err := inst.check(); err != nil { // reloads through mlmdio and compares bits
		t.Error(err)
	}
}

func TestPercentilesAndSegments(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {95, 4.8}} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	q1, q2, q3 := quartiles(vals)
	if q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := iqrShare(vals); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("iqrShare = %v", got)
	}
	// Ten dispatches of 2 steps: five of 1 s, then five of 2 s.
	durs := []float64{1, 1, 1, 1, 1, 2, 2, 2, 2, 2}
	rates, p50s, p95s := segmentStats(durs, 2, 5)
	wantRates := []float64{2, 2, 4.0 / 3, 1, 1}
	wantP50 := []float64{500, 500, 750, 1000, 1000}
	wantP95 := []float64{500, 500, 975, 1000, 1000}
	if len(rates) != 5 || len(p50s) != 5 || len(p95s) != 5 {
		t.Fatalf("segmentStats gave %d/%d/%d segments", len(rates), len(p50s), len(p95s))
	}
	for i := range wantRates {
		if math.Abs(rates[i]-wantRates[i]) > 1e-12 || math.Abs(p50s[i]-wantP50[i]) > 1e-9 || math.Abs(p95s[i]-wantP95[i]) > 1e-9 {
			t.Errorf("segment %d: rate %v p50 %v p95 %v, want %v %v %v", i, rates[i], p50s[i], p95s[i], wantRates[i], wantP50[i], wantP95[i])
		}
	}
	if got, _, _ := segmentStats(durs[:3], 1, 5); len(got) != 3 {
		t.Errorf("3 dispatches gave %d segments", len(got))
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer("w", 4)
	a := tr.begin("outer")
	b := tr.begin("inner")
	tr.end(b)
	tr.paused = true
	tr.end(tr.begin("dropped"))
	tr.paused = false
	tr.end(a)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	tr.spans[0].Start, tr.spans[0].End = 0, 10e9
	tr.spans[1].Start, tr.spans[1].End = 2e9, 5e9
	self := tr.selfTotals()
	if self["outer"] != (spanTotal{7, 1}) || self["inner"] != (spanTotal{3, 1}) {
		t.Errorf("self times = %v", self)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // a nil tracer records nothing and does not panic
}

func TestVerdicts(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	cases := []struct {
		a, b   []float64
		higher bool
		want   string
	}{
		{steady(100), steady(101), true, "ok"},
		{steady(100), steady(80), true, "regressed"},
		{steady(100), steady(120), true, "ok"},
		{steady(100), steady(120), false, "regressed"},
		{steady(100), []float64{60, 80, 100, 120, 140}, true, "unresolved"},
	}
	for i, c := range cases {
		if _, got := verdict(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("case %d: verdict %q, want %q", i, got, c.want)
		}
	}
}

func writeRecords(t *testing.T, path string, recs []record) {
	t.Helper()
	for _, r := range recs {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	e2e := func(rate float64) result {
		return result{Correct: true, Attempted: 10, Metrics: map[string]metric{
			"steps_per_s": {rate, "steps/s"}, "step_ms_p50": {1e3 / rate, "ms"},
			"step_ms_p95": {2e3 / rate, "ms"}, "setup_s": {0.02, "s"}}}
	}
	traced := func(rebuildShare float64) result {
		return result{Correct: true, Attempted: 10, Metrics: map[string]metric{"shard.rebuild_share": {rebuildShare, "share"}}}
	}
	set := func(name string, rate, rebuildShare float64, digest string) string {
		path := filepath.Join(dir, name)
		var recs []record
		for seed := int64(1); seed <= 4; seed++ {
			recs = append(recs, record{Workload: "md.lj", Seed: seed, Seconds: 1, Digest: digest, Result: e2e(rate * (1 + 0.001*float64(seed)))})
		}
		recs = append(recs, record{Workload: "md.lj", Seed: 1, Seconds: 1, Trace: true, Result: traced(rebuildShare)})
		writeRecords(t, path, recs)
		return path
	}
	base := set("a.jsonl", 200, 0.17, "d1")
	for _, c := range []struct {
		name string
		path string
		want int
	}{
		{"same", set("same.jsonl", 201, 0.17, "d1"), 0},
		{"slower", set("slow.jsonl", 150, 0.17, "d1"), 1},
		{"count differs", set("count.jsonl", 200, 0.18, "d1"), 1},
		{"digest differs", set("digest.jsonl", 200, 0.17, "d2"), 1},
		{"missing", filepath.Join(dir, "nope.jsonl"), 2},
	} {
		var out strings.Builder
		if got := compareFiles("../BENCHMARK.json", base, c.path, &out); got != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesRegistry pins BENCHMARK.json to the code: it
// lists exactly the registered workloads and metrics, with the same units.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || len(doc.Command) == 0 {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d registered", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q, registered %q (or the why lines differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics listed, %d measured", len(doc.EndToEnd), len(endToEndUnits))
	}
	setupBound, maxBound := 0.0, 0.0
	for _, e := range doc.EndToEnd {
		name(e.Name)
		if endToEndUnits[e.Name] != e.Unit || !unitRE.MatchString(e.Unit) {
			t.Errorf("end-to-end %s: unit %q, measured in %q", e.Name, e.Unit, endToEndUnits[e.Name])
		}
		if e.Better != "higher" && e.Better != "lower" || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end %s: better %q bound %v", e.Name, e.Better, e.Bound)
		}
		maxBound = math.Max(maxBound, e.Bound)
		if e.Name == "setup_s" {
			setupBound = e.Bound
			if e.Unit != "s" || e.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (max %v)", setupBound, maxBound)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d measured", len(doc.PerLayer), len(perLayer))
	}
	for i, l := range doc.PerLayer {
		name(l.Name)
		if l.Name != perLayer[i].name || l.Unit != perLayer[i].unit || !unitRE.MatchString(l.Unit) {
			t.Errorf("per-layer %d is %s [%s], measured %s [%s]", i, l.Name, l.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if l.Better != "higher" && l.Better != "lower" {
			t.Errorf("per-layer %s: better %q", l.Name, l.Better)
		}
	}
}
