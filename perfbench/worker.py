"""One round of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --size full|smoke
        --work DIR --started T [--trace]

`--started` is the CLOCK_MONOTONIC reading taken by the parent just before
it started this interpreter, so `setup_s` spans interpreter start, imports
and input preparation up to the first CLI call. `wall_s` is the time spent
inside `mixedtopo.cli.main`; `peak_rss_mb` is this process's peak resident
memory when the recipe has finished, before the checks run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import workloads


def run_round(workload: str, seed: int, size: str, work: str, started: float,
              trace: bool) -> dict:
    from mixedtopo import cli

    os.makedirs(work, exist_ok=True)
    operations = workloads.RECIPES[workload](np.random.default_rng(seed), size, work)
    tracer = None
    if trace:  # after input preparation, whose numpy calls are not the program's
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    setup_s = time.monotonic() - started
    wall_s = 0.0
    done = []
    for op in operations:
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception:  # a crash of the program is a failed operation
            traceback.print_exc()
            code = None
        wall_s += time.perf_counter() - t0
        if code != 0:
            print(f"operation {op.argv[0]} exited with {code}", file=sys.stderr)
        done.append(code == 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:  # before the checks, for the same reason
        layers = tracer.report()
        tracer.write_spans(os.path.join(work, "spans.tsv"))

    problems = []
    for op, ok in zip(operations, done):
        if ok:
            problems.extend(op.check())
    result = {
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "attempted": len(done), "failed": done.count(False), "problems": problems,
    }
    if layers is not None:
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.RECIPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--work", required=True)
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    result = run_round(args.workload, args.seed, args.size, args.work, args.started, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
