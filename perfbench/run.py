"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload node_large --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--workload all`` runs every workload in
turn, each in its own process, and prints each one's lines.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation installed; ``--trace 1`` installs the
benchmark's timers and hooks and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  Before the result line,
one JSON line records provenance (cpus, BLAS threads, library versions,
machine fingerprint) and the run's sample counts and sizes.
``--scale tiny`` shrinks every workload for the self-check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# One BLAS thread per compute thread keeps a run's compute threads at or
# below nproc.  BLAS reads these when numpy loads and forked workers
# inherit them, so they are set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _workloads() -> dict:
    import dist
    import node
    import serve
    return {"node_large": node.run, "dist_process": dist.run_process,
            "dist_sim": dist.run_sim, "serve_mixed": serve.run}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"]: m["unit"]
             for key in ("end_to_end", "per_layer") for m in spec[key]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    if args.workload == "all":
        code = 0
        for w in spec["workloads"]:
            code |= subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", w["name"], "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--scale", args.scale]).returncode
        return code
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import common
    workloads = _workloads()
    res = common.Result(names)
    workloads[args.workload](res, args.seed, args.seconds, bool(args.trace),
                             args.scale)
    line = res.emit(wanted)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "scale": args.scale,
                      "provenance": common.provenance(),
                      "notes": res.notes}))
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
