"""Runs one workload's operations in this process, through trideck.cli.main,
and writes the timings and first outputs as JSON to stdout.

Reads its spec (JSON) from stdin: src, ops, seconds, trace.  The run is one
untimed warm-up round and then whole rounds, each calling every operation
once in order, until `seconds` have passed.  Before each call a fixed
calibration loop is timed, so that the host's speed is sampled at the same
moments as the operations.  Untraced runs take a cold start of a fresh
interpreter after each of the first rounds (setup_s).  Traced runs alternate
untraced and traced rounds, so that the tracing overhead is the difference
of the two.  Started by run.py, not meant to be run by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
import traceback

import tracing

COLD_STARTS_MAX = 10
COLD_STARTS_MIN = 5
_SECONDS_FIELD = re.compile(r'"seconds": [-+0-9.eE]+')


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed just now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    return time.perf_counter() - t0


def cold_start(src: str) -> float:
    """Seconds from spawning a fresh interpreter until `import trideck.cli`
    has finished in it (CLOCK_MONOTONIC is shared by all processes)."""
    code = (f"import sys, time; sys.path.insert(0, {src!r}); "
            "import trideck.cli; sys.stdout.write(repr(time.monotonic()))")
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout) - t0


def call(cli, argv: list[str]) -> tuple[object, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead run
            rc = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


class Runner:
    def __init__(self, cli, ops: list[dict]):
        self.cli = cli
        self.ops = ops
        self.results = [{"name": op["name"], "failures": 0, "rc": None,
                         "stdout": None, "stderr": None, "repeatable": True,
                         "times": [], "traced_times": []} for op in ops]
        self.cal = {"times": [], "traced_times": []}
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def round(self, timed: bool, traced: bool = False) -> None:
        key = "traced_times" if traced else "times"
        for op, res in zip(self.ops, self.results):
            cal = calibrate()
            rc, dt, out, err = call(self.cli, op["argv"])
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                res["failures"] += 1
            if res["stdout"] is None:
                res["rc"], res["stdout"], res["stderr"] = rc, out, err
            elif (rc != res["rc"] or _SECONDS_FIELD.sub("", out)
                  != _SECONDS_FIELD.sub("", res["stdout"])):
                res["repeatable"] = False
            if timed:
                res[key].append(dt)
                self.cal[key].append(cal)
            if traced:
                self.output_bytes += len(out.encode())


def main() -> int:
    spec = json.load(sys.stdin)
    src = spec["src"]
    sys.path.insert(0, src)
    from trideck import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"imported trideck from {cli.__file__}, not {src}")

    runner = Runner(cli, spec["ops"])
    runner.round(timed=False)
    # one round's high-water mark: later rounds add only heap fragmentation,
    # which grows with the number of rounds and so with the host's speed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    setup, rounds, traced_rounds = [], 0, 0
    t_end = time.monotonic() + spec["seconds"]
    while rounds < 1 + spec["trace"] or time.monotonic() < t_end:
        if spec["trace"] and rounds % 2 == 1:
            tracer.install()
            try:
                runner.round(timed=True, traced=True)
            finally:
                tracer.uninstall()
            traced_rounds += 1
        else:
            runner.round(timed=True)
        rounds += 1
        if not spec["trace"] and len(setup) < COLD_STARTS_MAX:
            setup.append(cold_start(src))
    while not spec["trace"] and len(setup) < COLD_STARTS_MIN:
        setup.append(cold_start(src))

    layers, missing = ({}, []) if not traced_rounds else \
        tracing.layer_metrics(rec, tracer.absent, traced_rounds,
                              runner.output_bytes)
    json.dump({"ops": runner.results, "cal": runner.cal,
               "attempted": runner.attempted, "failed": runner.failed,
               "rounds": rounds, "traced_rounds": traced_rounds,
               "setup_s": setup, "peak_rss_mb": peak_rss_mb,
               "peak_rss_mb_end":
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "layers": layers, "absent": missing,
               "absent_spans": sorted(tracer.absent),
               "spans": {name: [rec.calls[name], rec.total[name],
                                rec.self_time[name]] for name in rec.calls}},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
