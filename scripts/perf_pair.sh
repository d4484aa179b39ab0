#!/usr/bin/env bash
# Paired before/after benchmark of two commits on one perfbench workload.
#
#   scripts/perf_pair.sh BASE HEAD WORKLOAD N [SEED]
#
# Checks BASE and HEAD out as detached git worktrees in a temporary
# directory and runs `perfbench/run.py --workload WORKLOAD --seed SEED
# --seconds S --trace 0` N times on each, in pairs, where S is the
# `run_seconds` of HEAD's BENCHMARK.json. Each pair swaps which side runs
# first, so a slow drift of the host load falls on both.
# One uncounted warm-up run per side builds perfbench first (run.py builds
# on first use). Then it prints, per end-to-end metric of BENCHMARK.json,
# each side's median and quartiles, the HEAD/BASE ratio of the medians and
# the pairs HEAD won, and each side's digest_sha256. SEED defaults to 1.
# perfbench is only read.
#
# Example: scripts/perf_pair.sh HEAD~1 HEAD des_100k 10
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  echo "usage: $0 BASE HEAD WORKLOAD N [SEED]" >&2
  exit 2
fi
base=$1
head=$2
workload=$3
pairs=$4
seed=${5:-1}
for value in "$pairs" "$seed"; do
  case $value in
    '' | *[!0-9]*)
      echo "perf_pair: N and SEED must be non-negative integers" >&2
      exit 2
      ;;
  esac
done
if [ "$pairs" -eq 0 ]; then
  echo "perf_pair: N must be at least 1" >&2
  exit 2
fi

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/perf_pair.XXXXXX")
cleanup() {
  for side in base head; do
    if [ -d "$work/$side" ]; then
      git -C "$repo" worktree remove --force "$work/$side" || true
    fi
  done
  rm -rf "$work"
}
trap cleanup EXIT

# run SIDE OUTPUT: one perfbench run of the workload on SIDE's checkout.
run() {
  if ! python3 "$work/$1/perfbench/run.py" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$2" 2> "$2.err"; then
    echo "perf_pair: $1 run failed:" >&2
    cat "$2.err" "$2" >&2
    exit 1
  fi
}

git -C "$repo" worktree add --detach --quiet "$work/base" "$base"
git -C "$repo" worktree add --detach --quiet "$work/head" "$head"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$work/head/BENCHMARK.json")
for side in base head; do
  echo "perf_pair: building and warming up $side ($(git -C "$work/$side" rev-parse --short HEAD))" >&2
  run "$side" "$work/$side.warmup"
done

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for side in $order; do
    run "$side" "$work/$side.$i"
    echo "perf_pair: pair $i/$pairs $side: $(tail -n 1 "$work/$side.$i")" >&2
  done
done

python3 - "$work" "$pairs" "$workload" "$seed" <<'EOF'
import json
import pathlib
import statistics
import sys

work = pathlib.Path(sys.argv[1])
pairs = int(sys.argv[2])
spec = json.loads((work / "head" / "BENCHMARK.json").read_text())
better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def load(side, i):
    lines = (work / f"{side}.{i}").read_text().splitlines()
    digest = next((line.split(": ", 1)[1] for line in lines
                   if line.startswith("digest_sha256: ")), None)
    return json.loads(lines[-1]), digest


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


runs = {side: [load(side, i) for i in range(1, pairs + 1)] for side in ("base", "head")}
print(f"workload {sys.argv[3]}, seed {sys.argv[4]}, {pairs} pairs")
print(f"{'metric':<14} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32} "
      f"{'head/base':>9} {'head won':>8}")
for name, direction in better.items():
    values = {side: [result["metrics"][name]["value"] for result, _ in runs[side]]
              for side in runs}
    q = {side: spread(values[side]) for side in values}
    ratio = q["head"][1] / q["base"][1] if q["base"][1] else float("nan")
    won = sum((h < b) if direction == "lower" else (h > b)
              for b, h in zip(values["base"], values["head"]))
    cells = [f"{q[side][1]:.4g} [{q[side][0]:.4g}, {q[side][2]:.4g}]" for side in ("base", "head")]
    print(f"{name:<14} {cells[0]:>32} {cells[1]:>32} {ratio:>9.3f} {won:>5}/{pairs}")
for side in ("base", "head"):
    failed = sum(result["failed"] for result, _ in runs[side])
    digests = sorted({digest or "none" for _, digest in runs[side]})
    print(f"{side}: failed {failed}, digest_sha256 {' '.join(digests)}")
same = {d for _, d in runs["base"]} == {d for _, d in runs["head"]}
print("digests: " + ("identical" if same else "DIFFERENT"))
EOF
