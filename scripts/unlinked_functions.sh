#!/usr/bin/env bash
# Lists the mmtag:: functions that libmmtag defines but no entry point links.
#
# Usage: scripts/unlinked_functions.sh BUILD_DIR
#
# Builds the library and every entry point (tools/mmtag_sim, the two bench
# binaries mmtag_bench and bench_perf_kernels, and perfbench configured from
# perfbench/) into BUILD_DIR at -O0 -fno-inline with one section per
# function, links with --gc-sections, and prints each
# mmtag:: function defined in libmmtag's objects that no linked binary keeps.
# Neither the test binary nor the examples are entry points: an example may
# use only library code that the CLI, a bench or perfbench also links. Names
# are selected by mangled prefix (_ZN5mmtag / _ZNK5mmtag, so std:: template
# instantiations never match) and printed demangled without parameter lists,
# one per line, sorted. Overloads therefore share a line.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
build="$(cd "$1" && pwd)"

configure() {
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Reachability \
    -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "$2.configure.log"
}

benches=(mmtag_bench bench_perf_kernels)

configure "$root" "$build/main"
cmake --build "$build/main" -j "$(nproc)" --target mmtag mmtag_sim "${benches[@]}" \
  > "$build/main.build.log"
configure "$root/perfbench" "$build/perfbench"
cmake --build "$build/perfbench" -j "$(nproc)" --target mmtag_perfbench \
  > "$build/perfbench.build.log"

# Defined function symbols in the mmtag namespace, one mangled name per line.
mmtag_functions() {
  nm --defined-only "$@" |
    awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZN(K)?5mmtag/ { print $3 }' | sort -u
}

binaries=("$build/main/tools/mmtag_sim" "$build/perfbench/mmtag_perfbench")
binaries+=("${benches[@]/#/$build/main/bench/}")

mmtag_functions "$build/main/src/libmmtag.a" > "$build/defined.txt"
mmtag_functions "${binaries[@]}" > "$build/linked.txt"
comm -23 "$build/defined.txt" "$build/linked.txt" | c++filt -p | sed "s/\[abi:[^]]*\]//g" | sort -u
