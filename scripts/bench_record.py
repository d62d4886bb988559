#!/usr/bin/env python3
"""Record one benchmark snapshot as BENCH_<label>.json at the repository root.

Runs perfbench/run.py, unchanged, on every workload, once with tracing off
(end-to-end metrics) and once with tracing on (per-layer metrics), one run
at a time.  The record holds the git commit of the measured sources, and
for each workload both runs' metrics and the share of operations that
failed.  Every record uses the same seed and run length, so that records
compare.  Metrics that no longer measure what their name says are listed
under `stale_metrics`.  Commit the code first, so that the commit recorded
is the one measured.

Usage, from the repository root:

    python3 scripts/bench_record.py --label 6
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "reconstruct", "decks")
SEED = 1
SECONDS = 30
# perfbench computes these counters as the multiply-adds of two direct
# correlations, and as 2 K^2 L flops over every pair of the grid deck's K
# offsets; shift_scan_distance is an FFT correlation, so the first overstates
# the work by orders of magnitude, and the grid deck sums only the (J+1)^2
# offsets x <= 0 <= y, J = max_offset // stride, about 4x fewer.  perfbench
# takes K = len(range(-max_offset, max_offset + 1, stride)), the deck's 2J+1
# offsets whenever the stride divides max_offset and up to one more when not.
STALE_METRICS = ("realline.shift_scan_macs", "realline.grid_deck_flops")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def run_bench(workload: str, trace: int) -> dict:
    """The JSON summary perfbench prints on its last line of stdout."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"perfbench --workload {workload} --trace {trace} exited "
                 f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="the record is written to BENCH_<label>.json")
    args = ap.parse_args()

    record = {
        "git_sha": _git("rev-parse", "HEAD"),
        "sources_modified": bool(_git("status", "--porcelain", "--",
                                      "src", "perfbench")),
        "seed": SEED, "seconds": SECONDS,
        "stale_metrics": list(STALE_METRICS),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cpus": os.cpu_count(), "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_bench(workload, trace)
            entry[key] = res["metrics"]
            entry[f"{key}_run"] = {
                "correct": res["correct"], "attempted": res["attempted"],
                "failed": res["failed"],
                "failed_share": res["failed"] / max(res["attempted"], 1)}
            print(f"{workload} trace {trace}: failed {res['failed']} of "
                  f"{res['attempted']}, correct {res['correct']}",
                  file=sys.stderr)
        record["workloads"][workload] = entry

    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
