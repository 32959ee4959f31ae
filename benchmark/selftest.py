#!/usr/bin/env python3
"""The benchmark's own test: every workload, both modes, small sizes.

    python3 benchmark/selftest.py

Runs run.py --small on all four workloads with --trace 0 and --trace 1 and
checks the result lines against BENCHMARK.json; checks that one seed gives
identical simulated metrics twice and that another seed gives other
inputs; and checks that the benchmark refuses to run, printing no result,
from a directory holding only BENCHMARK.json and benchmark/. Takes about ten
seconds once cosched_bench is built. Exits nonzero on the first failure.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIMULATED = ("scheduling_efficiency", "computational_efficiency",
             "mean_bounded_slowdown")


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(workload, seed, trace):
    done = run(workload, seed, trace)
    if done.returncode != 0:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" % (
            workload, trace, done.returncode, done.stderr[-3000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = result(name, 7, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            assert got == want, (name, trace, got, want)
            assert r["correct"] is True and r["attempted"] > 0, r
            assert r["failed"] == 0, r
            if trace == 0:
                first = r["metrics"]
                for m in spec["end_to_end"]:
                    assert first[m["name"]]["value"] > 0, (name, m)
            print("ok  %-16s trace=%d attempted=%d" % (
                name, trace, r["attempted"]))
        again = result(name, 7, 0)["metrics"]
        other = result(name, 8, 0)["metrics"]
        for m in SIMULATED:
            assert first[m]["value"] == again[m]["value"], (name, m)
        assert any(first[m]["value"] != other[m]["value"]
                   for m in SIMULATED), (name, "seed 8 gave seed 7's run")
        print("ok  %-16s seed 7 repeats, seed 8 differs" % name)

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "benchmark"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(spec["workloads"][0]["name"], 7, 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0, "ran without the simulator sources"
    assert '"metrics"' not in done.stdout, done.stdout
    print("ok  refuses to run without src/")
    print("selftest passed")


if __name__ == "__main__":
    main()
