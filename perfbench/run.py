#!/usr/bin/env python3
"""Repository benchmark for the mmTag simulator.

Builds perfbench/ (the mmtag library from src/ plus the benchmark driver)
into .bench_build/perfbench, runs one workload and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
The lines before it give the workload's deterministic output digest and the
run's provenance.

    python3 perfbench/run.py --workload link_long --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of the workload; --trace 1 runs
the traced mirrors of every layer and reports the per-layer metrics.
See perfbench/README.md.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "mmtag_perfbench"
WORKLOADS = ("link_long", "soak_multitag", "des_100k")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag, as set by `setarch -R`


def die(message):
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(command, timeout):
    """Runs a build step with its output sent to stderr."""
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(map(str, command))}")
    if done.returncode != 0:
        die(f"failed ({done.returncode}): {' '.join(map(str, command))}")


def fixed_address_layout():
    """Runs in the benchmark process before exec: turns off address-space
    randomisation, so every run gets the same memory layout. With it on, the
    layout alone moved des_100k throughput by up to ~20% between runs of the
    same seed. Best effort: where personality(2) is refused, the run goes on."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"mmtag sources not found at {ROOT / 'src'}; run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs], BUILD_TIMEOUT_S)


def cmake_cache():
    values = {}
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        match = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line)
        if match and match.group(1) in ("CMAKE_CXX_COMPILER", "CMAKE_BUILD_TYPE",
                                        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE"):
            values[match.group(1)] = match.group(2)
    for path in glob.glob(str(BUILD_DIR / "CMakeFiles" / "*" / "CMakeCXXCompiler.cmake")):
        text = pathlib.Path(path).read_text()
        for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
            match = re.search(rf'set\({key} "([^"]*)"\)', text)
            if match:
                values[key] = match.group(1)
    return values


def git_state():
    if not (ROOT / ".git").exists():
        return {"describe": None, "dirty": None, "note": "not a git checkout"}
    try:
        describe = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                                  capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as error:
        return {"describe": None, "dirty": None, "note": str(error)}
    if describe.returncode != 0:
        return {"describe": None, "dirty": None, "note": describe.stderr.strip()}
    text = describe.stdout.strip()
    return {"describe": text, "dirty": text.endswith("-dirty")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        die("--seconds must be in [1, 60]")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build()
    scratch = tempfile.mkdtemp(prefix="run_", dir=ROOT / ".bench_build")
    try:
        command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scratch", scratch]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                                  text=True, timeout=RUN_TIMEOUT_S,
                                  preexec_fn=fixed_address_layout)
        except subprocess.TimeoutExpired:
            die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        die(f"{args.workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        die(f"{args.workload} printed nothing")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        die(f"metrics missing from the run: {', '.join(missing)}")

    if result["digest"]:
        print("digest_sha256: " + hashlib.sha256(result["digest"].encode()).hexdigest())
        print("digest: " + result["digest_summary"])
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git": git_state(),
        "build": cmake_cache(),
        "nproc": os.cpu_count(),
        "phy_table_fingerprint": result["phy_table_fingerprint"],
    }
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }))
    if not result["correct"]:
        print(f"perfbench: FAILED: {result['error']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
