#!/usr/bin/env python3
"""Benchmark of the mixedtopo CLI over three recipes of the paper.

    python3 perfbench/run.py --workload scan|chains|ness --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each round of a workload runs in a fresh interpreter (perfbench/worker.py)
with BLAS pinned to one thread, calls `mixedtopo.cli.main` as a user would,
and checks every output against perfbench/oracle.py. Rounds repeat while
the next one is expected to end within S seconds; at least one always runs.

--trace 0 prints the end-to-end metrics: the medians over rounds of wall_s,
setup_s and peak_rss_mb. --trace 1 alternates untraced and traced rounds,
starting untraced, and prints the per-layer metrics (medians over traced
rounds) with the tracing overhead: median traced minus median untraced wall. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --smoke runs each
workload once at a tiny size with its checks and exits 0 if all pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("scan", "chains", "ness")
ROUND_TIMEOUT_S = 120


def metric_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them ('end_to_end' or 'per_layer')."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_round(workload: str, seed: int, size: str, trace: bool) -> dict:
    """Start a fresh worker for one round and return its JSON result."""
    work = os.path.join(OUT, workload)
    shutil.rmtree(work, ignore_errors=True)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--work", work]
    if trace:
        argv.append("--trace")
    started = time.monotonic()
    proc = subprocess.run(argv + ["--started", repr(started)], env=worker_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Rounds until the next would end after `seconds`: (untraced, traced) results."""
    start = time.monotonic()
    untraced, traced = [], []
    durations = []
    while True:
        # a traced run alternates untraced and traced rounds, to measure the overhead
        tracing = trace and len(untraced) > len(traced)
        t0 = time.monotonic()
        (traced if tracing else untraced).append(run_round(workload, seed, "full", tracing))
        durations.append(time.monotonic() - t0)
        if trace and not traced:
            continue
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return untraced, traced


def summarize(untraced: list, traced: list) -> dict:
    rounds = untraced + traced
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if traced:
        units = metric_units("per_layer")
        wall = statistics.median(r["wall_s"] for r in traced)
        base = statistics.median(r["wall_s"] for r in untraced)
        values = {"trace.wall_s": wall, "trace.untraced_wall_s": base,
                  "trace.overhead_s": wall - base}
        for name in units.keys() - values.keys():
            # a layer the workload never enters has no spans and no counts
            values[name] = statistics.median(r["layers"].get(name, 0) for r in traced)
    else:
        units = metric_units("end_to_end")
        values = {name: statistics.median(r[name] for r in rounds) for name in units}
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def smoke() -> int:
    bad = 0
    for workload in WORKLOADS:
        r = run_round(workload, 0, "smoke", False)
        ok = not r["problems"] and not r["failed"]
        bad += not ok
        print(f"{workload}: {'ok' if ok else 'FAILED'} wall {r['wall_s']:.2f} s "
              f"{r['problems']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mixedtopo", "cli.py")):
        print(f"no mixedtopo sources under {ROOT}/src: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    untraced, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = summarize(untraced, traced)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(),
              "rounds": untraced + traced, "result": result}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}_trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"machine": record["machine"], "rounds": len(record["rounds"])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
