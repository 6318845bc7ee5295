"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

From the repository root.  For every workload, in both modes, it checks
that the result line has exactly the contract's keys and every metric
BENCHMARK.json names for that mode, with its declared unit, that every
output check passed, and that the deterministic metrics repeat exactly
for a fixed seed.  Finally it checks that the benchmark fails, printing
no result, in a directory holding only BENCHMARK.json and its own files.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Metrics that must repeat exactly for a fixed seed, by mode.
DETERMINISTIC = {0: ("rel_err", "sim_time_ms"),
                 1: ("comm.msgs", "comm.bytes", "exchange.bytes")}


def run(root: str, spec: dict, workload: str, trace: int,
        seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace),
                           "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess, label: str) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(res: dict, spec: dict, workload: str, trace: int) -> None:
    label = f"{workload} trace={trace}"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{label}: result keys {sorted(res)}")
    declared = spec["per_layer" if trace else "end_to_end"]
    if list(res["metrics"]) != [m["name"] for m in declared]:
        raise SystemExit(f"{label}: metrics {list(res['metrics'])}")
    for m in declared:
        got = res["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"{label}: {m['name']} = {got}")
    if not res["correct"] or res["attempted"] < 1:
        raise SystemExit(f"{label}: correct={res['correct']} "
                         f"attempted={res['attempted']}")
    if res["failed"]:
        raise SystemExit(f"{label}: {res['failed']} failed operations")
    if trace and res["metrics"]["verify.detections"]["value"] != 0:
        raise SystemExit(f"{label}: ABFT false positives")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first = result(run(ROOT, spec, w, trace), w)
            check(first, spec, w, trace)
            again = result(run(ROOT, spec, w, trace), w)
            for name in DETERMINISTIC[trace]:
                a = first["metrics"][name]["value"]
                b = again["metrics"][name]["value"]
                if a != b:
                    raise SystemExit(f"{w} trace={trace}: {name} {a} != {b}")
            print(f"ok  {w} trace={trace}", flush=True)

    # without the program's sources the benchmark must fail, not report
    bare = os.path.join(ROOT, ".bench_selfcheck")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec, spec["workloads"][0]["name"], 0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and '"metrics"' in lines[-1]):
            raise SystemExit("bare directory: the benchmark did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
