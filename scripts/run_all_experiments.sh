#!/usr/bin/env bash
# Regenerates every reconstructed experiment (R1..R23) into results/.
# Usage: scripts/run_all_experiments.sh [build-dir] [--csv]
set -euo pipefail

build_dir="${1:-build}"
format_flag="${2:-}"
out_dir="results"
mkdir -p "$out_dir"

for bench in "$build_dir"/bench/bench_r*; do
  name="$(basename "$bench")"
  echo "== $name"
  if [[ "$format_flag" == "--csv" ]]; then
    "$bench" --csv > "$out_dir/$name.csv"
  else
    "$bench" > "$out_dir/$name.txt"
  fi
done
echo "wrote $(ls "$out_dir" | wc -l) result files to $out_dir/"
