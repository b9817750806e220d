#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload briefly through perfbench/run.py, untraced and traced,
with the same seed, and checks that:
  * each run exits 0 and its last line is a result object with
    correct == true, attempted >= 1 and failed == 0;
  * the result carries exactly the BENCHMARK.json metrics of its mode, each
    with its unit; every name matches [A-Za-z0-9_.-]+ and every unit
    [A-Za-z0-9_/%.-]+;
  * every end-to-end metric is printed as a "metric" line with its unit, and
    the end-to-end metrics are non-zero;
  * the traced run's shares parse as numbers in [0, 1], give or take 0.05
    for timer rounding, and the unattributed remainder is not negative
    beyond timer rounding (which would mean overlapping or double-counted
    spans);
  * the traced run wrote its span file, every span names an existing
    parent, and the non-zero layer shares are exactly those of the span
    names in the file (bench.op, the per-offload root, has none);
  * the untraced and traced runs print the same sim_digest.

Usage (from the repository root): python3 perfbench/smoke_test.py [--seconds S]
"""
import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LAYER_SHARES = ("offload.run_share", "soc.build_share", "soc.prepare_share",
                "soc.check_share", "soc.destroy_share", "serve.router_share",
                "serve.exec_share", "check.monitor_share")
SHARES = LAYER_SHARES + ("trace.unattributed_share",)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines


def check(cond, msg, errors):
    if not cond:
        errors.append(msg)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for key in ("end_to_end", "per_layer"):
        for m in spec[key]:
            check(NAME.match(m["name"]), f"bad metric name {m['name']!r}", errors)
            check(UNIT.match(m["unit"]), f"bad unit {m['unit']!r} of {m['name']}", errors)

    for w in spec["workloads"]:
        name = w["name"]
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{name} trace={trace}"
            rc, lines = run(name, args.seed, args.seconds, trace)
            check(rc == 0, f"{tag}: exit {rc}", errors)
            try:
                res = json.loads(lines[-1])
            except ValueError:
                errors.append(f"{tag}: last line is not JSON: {lines[-1][:120]!r}")
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{tag}: result keys {sorted(res)}", errors)
            check(res.get("correct") is True, f"{tag}: correct is not true", errors)
            check(res.get("attempted", 0) >= 1 and res.get("failed") == 0,
                  f"{tag}: attempted={res.get('attempted')} failed={res.get('failed')}", errors)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: metric set/units differ from BENCHMARK.json", errors)
            for k, v in res["metrics"].items():
                check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
                      f"{tag}: {k} is not a finite number", errors)
            printed = {}
            for line in lines:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "metric":
                    printed[parts[1]] = parts[3]
                if len(parts) == 3 and parts[0] == "sim_digest" and parts[1] == name:
                    digests.append(parts[2])
            for m in spec["end_to_end"]:
                check(printed.get(m["name"]) == m["unit"],
                      f"{tag}: metric line for {m['name']} [{m['unit']}] missing", errors)
                if trace == 0:
                    check(res["metrics"].get(m["name"], {}).get("value", 0) != 0,
                          f"{tag}: end-to-end metric {m['name']} is zero", errors)
            if trace == 1:
                shares = [res["metrics"][s]["value"] for s in SHARES]
                check(all(-0.05 <= s <= 1.05 for s in shares), f"{tag}: share out of range",
                      errors)
                unattributed = res["metrics"]["trace.unattributed_share"]["value"]
                check(unattributed >= -0.01,
                      f"{tag}: unattributed share {unattributed} is negative", errors)
                path = os.path.join(ROOT, ".bench_build", "out", f"spans_{name}.jsonl")
                try:
                    with open(path) as f:
                        spans = [json.loads(l) for l in f]
                    ids = {s["id"] for s in spans}
                    check(spans and all(s["parent"] == 0 or s["parent"] in ids for s in spans),
                          f"{tag}: span file has dangling parents", errors)
                    defined = {s["name"] + "_share" for s in spans} - {"bench.op_share"}
                    nonzero = {s for s in LAYER_SHARES if res["metrics"][s]["value"] != 0}
                    check(nonzero == defined,
                          f"{tag}: non-zero shares {sorted(nonzero)} but spans "
                          f"{sorted(defined)}", errors)
                except (OSError, ValueError) as e:
                    errors.append(f"{tag}: span file unreadable: {e}")
        check(len(digests) == 2 and digests[0] == digests[1],
              f"{name}: sim_digest differs between runs: {digests}", errors)
        print(f"smoke {name}: {'ok' if not errors else 'FAIL'}", flush=True)

    for e in errors:
        print("error:", e)
    print("smoke test", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
