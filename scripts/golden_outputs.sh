#!/usr/bin/env bash
# Writes the deterministic output of every entry point into OUT_DIR, so that
# `diff -r` of two such directories is the byte-identity check for a change
# that must not move any result.
#
# Usage: scripts/golden_outputs.sh BUILD_DIR OUT_DIR
#
# BUILD_DIR is a configured and built tree (tools/, bench/mmtag_bench, examples/).
# OUT_DIR receives:
#   bench/RNN.csv       `mmtag_bench ID --csv` stdout of every experiment
#                       that `mmtag_bench help` lists
#   json/RNN.json       the result JSON, without its "run" section (git, wall
#                       time, jobs, host), of each experiment that reads
#                       --json (R4/R5/R10/R21/R22/R23)
#   cli/NAME.txt        stdout of the CLI subcommands, and json/NAME.json for
#                       the ones that write a result file
#   examples/NAME.txt   stdout of the examples
# Everything runs in a fresh temporary working directory, so the benches'
# bench/out caches start cold and every printed path is relative. Lines
# containing " wall" (timings) are the only lines dropped.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "$1" && pwd)"
mkdir -p "$2"
out="$(cd "$2" && pwd)"
mkdir -p "$out/bench" "$out/json" "$out/cli" "$out/examples"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"
mkdir -p results

untimed() { grep -v ' wall' || true; }

# Drops the run section (wall time, git, jobs, host) of a result JSON.
strip_run() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
doc.pop("run", None)
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
EOF
}

bench="$build/bench/mmtag_bench"
json_ids=" R4 R5 R10 R21 R22 R23 "
for id in $("$bench" help | awk '!/^ / { print $1 }'); do
  name="$(printf 'R%02d' "${id#R}")"
  if [[ "$json_ids" == *" $id "* ]]; then
    "$bench" "$id" --csv --json "results/$name.json" | untimed > "$out/bench/$name.csv"
    strip_run "results/$name.json" "$out/json/$name.json"
  else
    "$bench" "$id" --csv | untimed > "$out/bench/$name.csv"
  fi
done

sim="$build/tools/mmtag_sim"
cli() {
  local name="$1"
  shift
  "$sim" "$@" | untimed > "$out/cli/$name.txt"
}
cli link link
cli link_8psk link --scheme 8psk --fec 2/3 --distance 4 --frames 60 --k-factor 10 --seed 3
cli budget budget
cli network network
cli inventory inventory
cli faults faults --frames 120
cli sweep sweep --points 4 --trials 6 --frames 4 --json results/sweep.json
cli soak soak --json results/soak.json
cli scale scale --tags 2000 --aps 4 --json results/scale.json
cli scale_clustered scale --tags 600 --aps 3 --layout clustered --frames 10 --json results/scale_clustered.json
cli scale_poisson scale --tags 600 --aps 3 --layout poisson --frames 10 --json results/scale_poisson.json
for name in sweep soak scale scale_clustered scale_poisson; do
  strip_run "results/$name.json" "$out/json/$name.json"
done

for src in "$root"/examples/*.cpp; do
  example="$(basename "$src" .cpp)"
  "$build/examples/$example" | untimed > "$out/examples/$example.txt"
done
