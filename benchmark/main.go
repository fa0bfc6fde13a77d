// Command benchmark is the MLMD stack's one benchmark: six fixed workloads
// against the public APIs of the internal packages, each a closed loop of
// dispatches timed from outside, verified bitwise against the serial run,
// with a separate traced run for the per-layer numbers. BENCHMARK.json at
// the repo root names the workloads, metrics and regression bounds;
// README.md in this directory explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"mlmd/internal/par"
)

// benchProcs is the parallelism every number is stated at: GOMAXPROCS, the
// worker pool, and (as 2x1x1) the rank grid.
const benchProcs = 2

// record is one run as appended to the -out file, the input of -compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Digest   string  `json:"digest,omitempty"`
	Result   result  `json:"result"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run (default: all six, untraced then traced)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed region in seconds")
	trace := flag.String("trace", "", "0: end-to-end metrics, 1: traced run and per-layer metrics (default: both)")
	spans := flag.String("spans", "", "write the traced run's spans to this JSON file")
	outPath := flag.String("out", "", "append each run as one JSON line to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	scratch := flag.String("scratch", ".bench_build/tmp", "scratch directory (checkpoints, sockets); keep it short and relative")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		spec := "BENCHMARK.json" // bench.sh runs from the repo root
		if _, err := os.Stat(spec); err != nil {
			spec = "../BENCHMARK.json" // go run . from this directory
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seconds <= 0 || (*trace != "" && *trace != "0" && *trace != "1") {
		fmt.Fprintln(os.Stderr, "benchmark: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}

	runtime.GOMAXPROCS(benchProcs)
	if os.Getenv("MLMD_WORKERS") == "" {
		par.SetWorkers(benchProcs)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, "run")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Printf("mlmd benchmark: %s %s/%s GOMAXPROCS=%d MLMD_WORKERS=%q pool=%d grid=%dx%dx%d seed=%d seconds=%g closed loop, 1 load generator\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), os.Getenv("MLMD_WORKERS"),
		par.Workers(), benchGrid[0], benchGrid[1], benchGrid[2], *seed, *seconds)

	p := params{seed: *seed, dir: dir}
	ok := true
	var last result
	emit := func(rec record) error {
		rec.Seed, rec.Seconds = *seed, *seconds
		ok = ok && rec.Result.Correct
		last = rec.Result
		return appendRecord(*outPath, rec)
	}
	for _, w := range selected {
		if *trace != "1" {
			res, digest := runEndToEnd(w, p, *seconds, os.Stdout)
			err = emit(record{Workload: w.name, Digest: fmt.Sprintf("%016x", digest), Result: res})
		}
		if *trace != "0" && err == nil {
			err = emit(record{Workload: w.name, Trace: true, Result: runTrace(w, p, *seconds, *spans, os.Stdout)})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	// The contract's last line: the result of the (single) run asked for.
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !ok {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
