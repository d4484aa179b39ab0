#!/usr/bin/env bash
# Paired before/after benchmark of two commits on one perfbench workload.
#
#   scripts/perf_pair.sh BASE HEAD WORKLOAD N [SEED]
#
# Checks BASE and HEAD out as detached git worktrees and runs
# `perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0`
# N times on each, in pairs, where S is the `run_seconds` of HEAD's
# BENCHMARK.json. Each pair swaps which side runs first, so a slow drift of
# the host load falls on both.
# Each commit keeps one worktree, named by its full SHA, under
# `$(git rev-parse --git-common-dir)/perf_pair/`, and perfbench keeps its
# build in that worktree's .bench_build, so a later call on the same commit
# skips the checkout, the configure and the build. Remove a cached commit
# with `git worktree remove --force <dir>`.
# One uncounted warm-up run per side builds perfbench if needed (run.py
# builds on first use). Then it prints, per end-to-end metric of BENCHMARK.json,
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
cache="$(git -C "$repo" rev-parse --path-format=absolute --git-common-dir)/perf_pair"
work=$(mktemp -d "${TMPDIR:-/tmp}/perf_pair.XXXXXX")
trap 'rm -rf "$work"' EXIT

# checkout REV: the cached detached worktree of REV's commit, added on first use.
checkout() {
  local sha dir
  sha=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}") || {
    echo "perf_pair: not a commit: $1" >&2
    exit 2
  }
  dir="$cache/$sha"
  if [ ! -e "$dir/.git" ]; then
    # Forget a worktree whose directory was deleted by hand, then add it.
    git -C "$repo" worktree prune
    git -C "$repo" worktree add --detach --quiet "$dir" "$sha"
  fi
  echo "$dir"
}

# run SIDE OUTPUT: one perfbench run of the workload on SIDE's checkout.
run() {
  local dir
  if [ "$1" = base ]; then dir=$base_dir; else dir=$head_dir; fi
  if ! python3 "$dir/perfbench/run.py" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 > "$2" 2> "$2.err"; then
    echo "perf_pair: $1 run failed:" >&2
    cat "$2.err" "$2" >&2
    exit 1
  fi
}

base_dir=$(checkout "$base")
head_dir=$(checkout "$head")
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$head_dir/BENCHMARK.json")
for side in base head; do
  if [ "$side" = base ]; then dir=$base_dir; else dir=$head_dir; fi
  if [ -f "$dir/.bench_build/perfbench/CMakeCache.txt" ]; then
    state="reusing the build in $dir"
  else
    state="configuring and building in $dir"
  fi
  echo "perf_pair: warming up $side ($(git -C "$dir" rev-parse --short HEAD)): $state" >&2
  start=$(date +%s)
  run "$side" "$work/$side.warmup"
  echo "perf_pair: $side warm-up took $(( $(date +%s) - start )) s" >&2
done

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
  for side in $order; do
    run "$side" "$work/$side.$i"
    echo "perf_pair: pair $i/$pairs $side: $(tail -n 1 "$work/$side.$i")" >&2
  done
done

cp "$head_dir/BENCHMARK.json" "$work/BENCHMARK.json"
python3 - "$work" "$pairs" "$workload" "$seed" <<'EOF'
import json
import pathlib
import statistics
import sys

work = pathlib.Path(sys.argv[1])
pairs = int(sys.argv[2])
spec = json.loads((work / "BENCHMARK.json").read_text())
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
