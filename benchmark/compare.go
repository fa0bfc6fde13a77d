package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the compare mode needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// verdict classifies one end-to-end metric on one workload. worse is the
// relative change of B's median against A's in the metric's bad direction.
// A spread wider than the bound on either side cannot resolve a change of
// the bound's size, so it is reported as unresolved, never as ok.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / math.Abs(ma)
	if higherIsBetter {
		worse = -worse
	}
	switch {
	case iqrShare(a) > bound || iqrShare(b) > bound:
		v = "unresolved"
	case worse > bound:
		v = "regressed"
	default:
		v = "ok"
	}
	return worse, v
}

// compareFiles reads the bounds from the BENCHMARK.json at specPath and
// prints one row per end-to-end metric and workload for two sets of runs.
// It then checks that the verification digests of one seed, and every exact
// count of traced runs of one workload and seed, agree between the sets.
// It returns the process exit code: 1 on a regression, a failed operation
// or a differing count or digest, 2 on unusable input.
func compareFiles(specPath, pathA, pathB string, out io.Writer) int {
	raw, err := os.ReadFile(specPath)
	var spec benchmarkSpec
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(out, "compare: %s: %v\n", specPath, err)
		return 2
	}
	recsA, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintf(out, "compare: %v\n", err)
		return 2
	}
	recsB, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintf(out, "compare: %v\n", err)
		return 2
	}
	bad := false

	// values[workload][metric] of the untraced runs.
	collect := func(recs []record) map[string]map[string][]float64 {
		vals := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Result.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			}
		}
		return vals
	}
	valsA, valsB := collect(recsA), collect(recsB)
	fmt.Fprintf(out, "%-12s %-12s %3s %36s %36s %8s %6s  %s\n",
		"workload", "metric", "n", "A q1/median/q3", "B q1/median/q3", "worse", "bound", "verdict")
	for _, w := range workloads {
		for _, e := range spec.EndToEnd {
			a, b := valsA[w.name][e.Name], valsB[w.name][e.Name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			worse, v := verdict(a, b, e.Better == "higher", e.Bound)
			if v == "regressed" {
				bad = true
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			fmt.Fprintf(out, "%-12s %-12s %3d %36s %36s %+7.2f%% %5.0f%%  %s\n",
				w.name, e.Name, min(len(a), len(b)),
				fmt.Sprintf("%.5g/%.5g/%.5g", a1, a2, a3), fmt.Sprintf("%.5g/%.5g/%.5g", b1, b2, b3),
				100*worse, 100*e.Bound, v)
		}
	}

	// Failures and exact counts.
	for _, set := range [][]record{recsA, recsB} {
		for _, r := range set {
			if r.Result.Failed != 0 || !r.Result.Correct {
				fmt.Fprintf(out, "FAILED %s seed %d: %d of %d operations failed\n", r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
				bad = true
			}
		}
	}
	type key struct {
		workload string
		seed     int64
		seconds  float64
	}
	tracedA, digestA := map[key]record{}, map[key]string{}
	for _, r := range recsA {
		if r.Trace {
			tracedA[key{r.Workload, r.Seed, r.Seconds}] = r
		} else {
			digestA[key{r.Workload, r.Seed, 0}] = r.Digest
		}
	}
	pairs, diffs := 0, 0
	for _, rb := range recsB {
		if !rb.Trace {
			// The verification digest is taken after a fixed step count.
			if d, ok := digestA[key{rb.Workload, rb.Seed, 0}]; ok && d != rb.Digest {
				fmt.Fprintf(out, "DIGEST DIFFERS %s seed %d: %s != %s\n", rb.Workload, rb.Seed, d, rb.Digest)
				diffs++
			}
			continue
		}
		ra, ok := tracedA[key{rb.Workload, rb.Seed, rb.Seconds}]
		if !ok {
			continue
		}
		pairs++
		var names []string
		for _, pl := range perLayer {
			if pl.exact && ra.Result.Metrics[pl.name].Value != rb.Result.Metrics[pl.name].Value {
				names = append(names, fmt.Sprintf("%s %v != %v", pl.name, ra.Result.Metrics[pl.name].Value, rb.Result.Metrics[pl.name].Value))
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "COUNT DIFFERS %s seed %d: %s\n", rb.Workload, rb.Seed, n)
			diffs++
		}
	}
	fmt.Fprintf(out, "exact counts: %d traced pairs compared, %d differences\n", pairs, diffs)
	if bad || diffs > 0 {
		return 1
	}
	return 0
}
