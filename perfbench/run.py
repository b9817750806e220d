#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_grid, fleet_soak, fleet_chaos. The first run
configures and builds perfbench/ (the simulator library from src/ plus the
benchmark binary) into .bench_build/perfbench; later runs only rebuild what changed.
Build output goes to stderr. The binary's report goes to stdout. Its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}, is
checked against BENCHMARK.json: the end-to-end metrics (--trace 0) must all be
measured; per-layer metrics (--trace 1) a workload does not have are filled in
as 0. Every unit must match. With --trace 1 the span file lands in
.bench_build/out/spans_<workload>.jsonl.

Exit status: the binary's (0 = every correctness gate passed), or non-zero
without a result line when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper_grid", "fleet_soak", "fleet_chaos")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps = [cmd]
    else:
        steps = []
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {rc}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    expected = expected_metrics(args.trace)
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        measured = result["metrics"]
    except (IndexError, KeyError, TypeError, ValueError):
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited {proc.returncode} without a result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    metrics = {}
    for name, unit in expected.items():
        m = measured.pop(name, None)
        if m is None and args.trace:
            m = {"value": 0, "unit": unit}  # a layer this workload does not have
        if m is None or m["unit"] != unit:
            fail(f"metric {name} [{unit}] missing or in another unit: {m}")
        metrics[name] = m
    if measured:
        fail(f"metrics not in BENCHMARK.json: {sorted(measured)}")
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
