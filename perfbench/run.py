#!/usr/bin/env python3
"""Benchmark of trideck by warm per-operation timings of its CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload {sweep,reconstruct,decks} \\
        --seed N --seconds S --trace {0,1}

Each operation of the workload is a `trideck` command line, called in
process through trideck.cli.main (argument parsing, library call, JSON/CSV
encoding) many times in a worker process.  Every output is checked against
reference.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  Details go to
perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import workloads
from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# One BLAS thread: the first matmul of a fresh process has been seen at
# 0.73 s with the default two-thread OpenBLAS pool, against 0.007 s.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# Seconds the worker's calibration loop takes, at its median, on the
# reference host (a 2-vCPU Xeon VM under its usual load).  Every reported
# time is scaled by CAL_REF_S / (the loop's median in the same run).
CAL_REF_S = 1.5e-3
RUN_LIMIT_S = 170  # the whole run, set-up and checks included

END_TO_END_UNITS = {"pass_s": "s", "largest_op_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def host_scale(w: dict, key: str) -> float:
    """Reference-host seconds per second measured in this run.

    The host's speed drifts by tens of percent over minutes, and it slows
    the calibration loop and the operations alike; the median of each,
    over the same stretch of time, sees the same mix of fast and slow
    spells, so their ratio holds still where either alone does not."""
    return CAL_REF_S / statistics.median(w["cal"][key])


def run_worker(ops: list[dict], seconds: int, trace: bool,
               deadline: float) -> dict:
    spec = {"src": SRC, "seconds": seconds, "trace": trace,
            "ops": [{"name": op["name"], "argv": op["argv"]} for op in ops]}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True,
        env=dict(os.environ, **BLAS_ENV), cwd=ROOT,
        timeout=max(deadline - time.monotonic(), 1))
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout)


def check_outputs(ops: list[dict], results: list[dict]) -> list[str]:
    """Messages of every check that failed, over the operations that did
    not fail; an operation whose outputs differ between calls fails too."""
    problems = []
    for op, res in zip(ops, results):
        if not res["repeatable"]:
            problems.append(f"{op['name']}: output differs between calls")
        if res["failures"]:
            continue
        kind, params = op["check"]
        try:
            checks.check(kind, res["stdout"], params)
        except checks.CheckFailure as e:
            problems.append(f"{op['name']}: {e}")
    return problems


def pass_time(results: list[dict], key: str) -> float:
    """Sum of the median warm time of every operation that never failed,
    in measured seconds."""
    return sum(statistics.median(res[key]) for res in results
               if not res["failures"])


def op_summary(op: dict, res: dict) -> dict:
    out = {"name": op["name"], "calls_failed": res["failures"],
           "expect_fail": op["expect_fail"], "rc": res["rc"],
           "stdout_bytes": len(res["stdout"].encode()),
           "stderr_tail": res["stderr"][-300:]}
    for key in ("times", "traced_times"):
        xs = res[key]
        if xs:
            out[key] = {"samples": len(xs), "min": min(xs),
                        "median": statistics.median(xs), "max": max(xs),
                        "all": xs}
    return out


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description="trideck CLI benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "trideck", "cli.py")):
        print(f"perfbench: no trideck sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(RESULTS, "work")
    os.makedirs(workdir, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, workdir)
    try:
        w = run_worker(ops, args.seconds, bool(args.trace),
                       t_start + RUN_LIMIT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    results = w["ops"]
    problems = check_outputs(ops, results)
    for op, res in zip(ops, results):
        if res["failures"]:
            tail = res["stderr"].strip().splitlines()[-1:] or ["?"]
            note = "known fault" if op["expect_fail"] else "UNEXPECTED"
            print(f"failed ({note}): {op['name']} x{res['failures']}: "
                  f"{tail[0]}", file=sys.stderr)

    scale = host_scale(w, "traced_times" if args.trace else "times")
    if args.trace:
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        metrics = {name: v * scale if units[name] == "s" else v
                   for name, v in w["layers"].items()}
        metrics["trace.overhead_s"] = (
            pass_time(results, "traced_times") * scale
            - pass_time(results, "times") * host_scale(w, "times"))
        for name in w["absent"]:
            print(f"absent: {name}", file=sys.stderr)
            metrics[name] = 0.0
    else:
        largest = next(res for op, res in zip(ops, results) if op["largest"])
        metrics = {
            "pass_s": pass_time(results, "times") * scale,
            "largest_op_s": (0.0 if largest["failures"] else
                             statistics.median(largest["times"]) * scale),
            "setup_s": statistics.median(w["setup_s"]) * scale,
            "peak_rss_mb": w["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    report = {"correct": not problems, "attempted": w["attempted"],
              "failed": w["failed"],
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "rounds": w["rounds"], "traced_rounds": w["traced_rounds"],
              "host_scale": scale, "calibration_s": w["cal"],
              "raw_pass_s": pass_time(results, "times"),
              "peak_rss_mb_end": w["peak_rss_mb_end"],
              "setup_samples_s": w["setup_s"], "problems": problems,
              "absent": w["absent"], "absent_spans": w["absent_spans"],
              "spans": w["spans"],
              "ops": [op_summary(op, res) for op, res in zip(ops, results)],
              "result": report}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"{args.workload}: {w['rounds']} rounds, attempted "
          f"{w['attempted']}, failed {w['failed']}, "
          f"correct {report['correct']}")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
