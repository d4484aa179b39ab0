#!/usr/bin/env bash
# Regenerates every reconstructed experiment (the ids `mmtag_bench help`
# lists, R1..R23) into results/.
# Usage: scripts/run_all_experiments.sh [build-dir] [--csv]
set -euo pipefail

build_dir="${1:-build}"
format_flag="${2:-}"
bench="$build_dir/bench/mmtag_bench"
out_dir="results"
mkdir -p "$out_dir"

for id in $("$bench" help | awk '!/^ / { print $1 }'); do
  echo "== $id"
  if [[ "$format_flag" == "--csv" ]]; then
    "$bench" "$id" --csv > "$out_dir/$id.csv"
  else
    "$bench" "$id" > "$out_dir/$id.txt"
  fi
done
echo "wrote $(ls "$out_dir" | wc -l) result files to $out_dir/"
