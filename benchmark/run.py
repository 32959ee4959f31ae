#!/usr/bin/env python3
"""CoSched end-to-end benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--small]

Run from the root of a source checkout. Builds the benchmark program and the
simulator libraries it links (benchmark/CMakeLists.txt, RelWithDebInfo) into
.bench_build/ on first use, runs one workload in its own process and prints
cosched_bench's JSON result as the last line of standard output. Build output
and progress go to standard error. Exits nonzero, printing no result, when
the build fails or an output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "cosched_bench")
WORKLOADS = ("wide_settle", "paper_campaign", "observed_stream")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("benchmark: simulator sources (src/) not found under "
                 + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "cosched_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("benchmark: build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="shrunken workloads for the benchmark's own test")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("benchmark: --seed must be >= 0 and --seconds > 0")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark: cosched_bench exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("benchmark: cosched_bench failed with exit code %d"
                 % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit("benchmark: cosched_bench printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("benchmark: malformed result: " + lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        sys.exit("benchmark: metrics %s differ from BENCHMARK.json's %s"
                 % (sorted(result["metrics"]), sorted(want)))
    if not result["correct"]:
        sys.exit("benchmark: output checks failed")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
