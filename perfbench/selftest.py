#!/usr/bin/env python3
"""Reduced-size self-test of the serving benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --size small, untraced and traced, and checks that
the result line has exactly the keys correct, attempted, failed and metrics, that every
metric named in BENCHMARK.json is printed with its unit and a finite value, and that all
output checks pass. Then it corrupts a result (--corrupt drop-request drops one completed
request before the checks) and checks that the output checks catch it. Exits non-zero on
the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "small", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_metrics(result, declared, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {where}: result keys are {sorted(result)}")
    printed = result["metrics"]
    for metric in declared:
        got = printed.get(metric["name"])
        if got is None:
            sys.exit(f"FAIL {where}: metric {metric['name']} not printed")
        if got.get("unit") != metric["unit"]:
            sys.exit(f"FAIL {where}: {metric['name']} unit {got.get('unit')!r}, "
                     f"declared {metric['unit']!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            sys.exit(f"FAIL {where}: {metric['name']} value {got.get('value')!r}")
    extra = set(printed) - {m["name"] for m in declared}
    if extra:
        sys.exit(f"FAIL {where}: metrics not declared in BENCHMARK.json: {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{workload} --trace {trace}"
            result = run(workload, trace)
            check_metrics(result, declared, where)
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"FAIL {where}: output checks failed on a clean run: {result}")
            print(f"ok   {where}: {len(declared)} metrics, {result['attempted']} requests")
        corrupted = run(workload, 0, "--corrupt", "drop-request")
        if corrupted["correct"] or corrupted["failed"] < 1:
            sys.exit(f"FAIL {workload}: a dropped request passed the output checks")
        print(f"ok   {workload}: dropped request caught ({corrupted['failed']} failed)")
    print("selftest passed")


if __name__ == "__main__":
    main()
