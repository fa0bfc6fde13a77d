#!/usr/bin/env bash
# Run set A, run set B, compare: the A/B workflow of choosing-metrics.
#
#   bash benchmark/run.sh <dirA> <dirB> [seeds] [seconds]
#
# dirA and dirB are two checkouts (they may be the same one, to see the
# benchmark's own run-to-run spread). Runs alternate between the two sides,
# and which side goes first alternates per seed. Every workload runs
# untraced on every seed and traced once; the rows and the verdicts come
# from `benchmark -compare`. Exit code 1 on a regression, a failed
# operation, or an exact count or digest that differs.
set -euo pipefail
a="$(cd "$1" && pwd)"; b="$(cd "$2" && pwd)"
seeds="${3:-10}"; seconds="${4:-10}"
mkdir -p "$b/.bench_build"; out="$(mktemp -d "$b/.bench_build/compare.XXXXXX")"
workloads="md.lj md.lj.ckpt mp.lj.sock nn.allegro field.fdtd qd.dcmesh"
one() { # side-dir side-name workload seed trace
  (cd "$1" && bash benchmark/bench.sh --workload "$3" --seed "$4" --seconds "$seconds" \
      --trace "$5" -out "$out/$2.jsonl" >/dev/null)
}
for w in $workloads; do
  for seed in $(seq 1 "$seeds"); do
    if (( seed % 2 )); then one "$a" A "$w" "$seed" 0; one "$b" B "$w" "$seed" 0
    else one "$b" B "$w" "$seed" 0; one "$a" A "$w" "$seed" 0; fi
  done
  one "$a" A "$w" 1 1; one "$b" B "$w" 1 1
done
cd "$b" && bash benchmark/bench.sh -compare "$out/A.jsonl" "$out/B.jsonl"
