"""Command-line entry point.

Every run emits a RunManifest (to stderr, or next to the output file when
--out is given) so that (command, parameters, seed) reproduce the primary
output byte for byte.  Exit codes: 0 success, 1 domain error, 2 budget
refusal, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .cyclic import CyclicFunction, KDeck, bispectrum, k_deck
from .cyclotomic import classify_zero_pattern, zero_set
from .determinacy import (exhaustive_determinacy, gm_counterexample,
                          survey_zero_proportion, verify_all_k_uniqueness)
from .errors import BudgetError, TrideckError
from .intervals import (IntervalSet, gap_functional, gap_profile,
                        partial_x_deck, translate_equal_sets,
                        triple_correlation_exact)
from .realline import (SampledFunction, continuity_probe, cos_pair,
                       indicator_stability_check, norm_inequality_test,
                       riesz_pair, shift_scan_distance, three_deck_grid)
from .reconstruct import reconstruct_from_deck

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise _UsageError(f"{self.prog}: error: {message}\n"
                          f"{self.format_usage()}")


@dataclasses.dataclass
class RunManifest:
    command: str
    parameters: dict
    seed: object
    versions: dict
    wall_time: float
    output_paths: list

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Argument helpers.

def _int_list(s: str) -> list[int]:
    s = s.strip()
    if not s:
        return []
    return [int(t) for t in s.split(",")]


def _rat_list(s: str) -> list[Fraction]:
    return [Fraction(t) for t in s.split(",")]


def _function_from_args(args) -> CyclicFunction:
    if args.values is not None:
        vals = _rat_list(args.values)
        n = args.n if args.n is not None else len(vals)
        if n != len(vals):
            raise TrideckError(f"--n {n} but {len(vals)} values given")
        return CyclicFunction.of(vals, n)
    if args.set is not None:
        if args.n is None:
            raise TrideckError("--set requires --n")
        return CyclicFunction.indicator(args.n, _int_list(args.set))
    raise TrideckError("one of --set or --values is required")


def _interval_set(spec: str) -> IntervalSet:
    if os.path.exists(spec):
        with open(spec) as fh:
            return IntervalSet.from_json_dict(json.load(fh))
    return IntervalSet.from_json_dict(json.loads(spec))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (result_dict, None) or (None, text), the
# text being the finished primary output.

def _cmd_deck(args):
    f = _function_from_args(args)
    deck = k_deck(f, args.k, args.budget)
    if args.format == "csv":
        return None, deck.to_csv()
    return None, deck.to_json() + "\n"


def _cmd_bispectrum(args):
    f = _function_from_args(args)
    return bispectrum(f).to_json_dict(), None


def _cmd_reconstruct(args):
    if args.deck is not None:
        with open(args.deck) as fh:
            deck = KDeck.from_json_dict(json.load(fh))
    else:
        deck = k_deck(_function_from_args(args), 3, args.budget)
    return reconstruct_from_deck(deck).to_json_dict(), None


def _cmd_zeros(args):
    return zero_set(args.n, _int_list(args.set)).to_json_dict(), None


def _cmd_classify(args):
    pattern = zero_set(args.n, _int_list(args.set))
    return classify_zero_pattern(args.n, pattern).to_json_dict(), None


def _cmd_sweep(args):
    return exhaustive_determinacy(args.n, args.k,
                                  args.budget).to_json_dict(), None


def _cmd_gm(args):
    return gm_counterexample(args.p, args.q, args.r).to_json_dict(), None


def _cmd_survey(args):
    res = survey_zero_proportion(args.n, args.samples, args.seed, args.mode)
    return res.to_json_dict(), None


def _cmd_allk(args):
    f = CyclicFunction.indicator(args.n, _int_list(args.set))
    g = CyclicFunction.indicator(args.n, _int_list(args.other))
    res = verify_all_k_uniqueness(f, g, args.kmax, args.budget)
    return res.to_json_dict(), None


def _cmd_intervals_deck(args):
    E = _interval_set(args.set)
    val = triple_correlation_exact(E, Fraction(args.x), Fraction(args.y))
    gap = gap_functional(E, Fraction(args.x), Fraction(args.y))
    return {"N": str(val), "G": str(gap)}, None


def _cmd_intervals_gaps(args):
    return gap_profile(_interval_set(args.set)).to_json_dict(), None


def _cmd_intervals_ddx(args):
    E = _interval_set(args.set)
    return {"ddx": partial_x_deck(E, Fraction(args.x), Fraction(args.y))}, None


def _cmd_intervals_translate(args):
    E = _interval_set(args.set)
    F = _interval_set(args.other)
    shift = translate_equal_sets(E, F, Fraction(args.tol))
    return {"shift": None if shift is None else str(shift)}, None


def _pair_summary(f: SampledFunction, g: SampledFunction, args):
    m = int(round(float(Fraction(args.max_x)) / f.h))
    Nf = three_deck_grid(f, m, args.stride, args.budget)
    Ng = three_deck_grid(g, m, args.stride, args.budget)
    scale = float(np.max(np.abs(Nf.values)))
    err = float(np.max(np.abs(Nf.values - Ng.values))) / scale
    return {
        "h": f.h, "samples": len(f.values),
        "deck_rel_error": err,
        "shift_scan_distance": shift_scan_distance(f, g),
    }


def _cmd_rline_cospair(args):
    h = float(Fraction(args.h))
    f, g = cos_pair(args.k, h, args.half_width, args.tail_tol)
    out = _pair_summary(f, g, args)
    if args.save_prefix:
        f.save_csv(args.save_prefix + "_f.csv")
        g.save_csv(args.save_prefix + "_g.csv")
        out["saved"] = [args.save_prefix + "_f.csv",
                        args.save_prefix + "_g.csv"]
    return out, None


def _cmd_rline_riesz(args):
    h = float(Fraction(args.h))
    f, g = riesz_pair(_int_list(args.signs),
                      [float(Fraction(a)) for a in args.amps.split(",")],
                      args.k, h, args.half_width, args.tail_tol)
    return _pair_summary(f, g, args), None


def _cmd_rline_stability(args):
    g = SampledFunction.load_csv(args.infile)
    return indicator_stability_check(g, args.tol).to_json_dict(), None


def _random_step(rng, h: float, length: int) -> SampledFunction:
    # piecewise-constant nonnegative function with a handful of steps
    n_steps = int(rng.integers(1, 6))
    vals = np.zeros(length)
    for _ in range(n_steps):
        a, b = sorted(rng.integers(0, length, size=2))
        vals[a:b + 1] += float(rng.uniform(0.1, 2.0))
    return SampledFunction(h, 0.0, vals)


def _cmd_rline_norms(args):
    rng = np.random.Generator(np.random.Philox(args.seed))
    h, length = 1 / 64, 128
    configs = [("1", ("1", "1", "1")),
               ("3/2", ("9/7", "9/7", "9/7"))]
    violations = 0
    worst = 0.0
    for _ in range(args.draws):
        fs = [_random_step(rng, h, length) for _ in range(3)]
        for r, ps in configs:
            res = norm_inequality_test(fs, r, ps, args.budget)
            if not res.holds:
                violations += 1
            if res.rhs > 0:
                worst = max(worst, res.lhs / res.rhs)
    return {"draws": args.draws, "configs": [c[0] for c in configs],
            "violations": violations, "worst_ratio": worst}, None


def _cmd_rline_continuity(args):
    if args.infile is not None:
        f = SampledFunction.load_csv(args.infile)
    else:
        h = float(Fraction(args.h))
        f = SampledFunction(h, 0.0, np.ones(int(round(1 / h))))
    radii = [float(Fraction(r)) for r in args.radii.split(",")]
    devs = continuity_probe(f, args.k, radii)
    return {"k": args.k, "limit": f.riemann(args.k + 1),
            "deviations": [[r, d] for r, d in devs]}, None


# ---------------------------------------------------------------------------
# Parser construction and dispatch.

def _finish(p, func, budget=False):
    """Add --out (and --budget, for handlers that pass it on) to a leaf
    parser and bind its handler."""
    p.add_argument("--out", help="write the result JSON/CSV here")
    if budget:
        p.add_argument("--budget", type=int, default=None,
                       help="override the compute budget")
    p.set_defaults(func=func)


def _add_function_args(p):
    """--n, and at most one of --set and --values; returns their group."""
    p.add_argument("--n", type=int, default=None)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--set", help="comma-separated subset of Z/nZ")
    source.add_argument("--values", help="comma-separated rational values")
    return source


def _add_pair_args(p):
    """The grid and deck-comparison arguments of a real-line pair."""
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--h", default="1/256")
    p.add_argument("--half-width", type=float, default=64.0)
    p.add_argument("--tail-tol", type=float, default=1e-2)
    p.add_argument("--max-x", default="2", help="deck comparison window")
    p.add_argument("--stride", type=int, default=32)


def build_parser() -> _Parser:
    top = _Parser(prog="trideck",
                  description="k-decks, bispectra and reconstruction")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("deck")
    _add_function_args(p)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _finish(p, _cmd_deck, budget=True)

    p = sub.add_parser("bispectrum")
    _add_function_args(p)
    _finish(p, _cmd_bispectrum)

    p = sub.add_parser("reconstruct")
    _add_function_args(p).add_argument(
        "--deck", help="path to a 3-deck JSON file")
    _finish(p, _cmd_reconstruct, budget=True)

    for name, func in (("zeros", _cmd_zeros), ("classify", _cmd_classify)):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--set", required=True,
                       help="comma-separated subset of Z/nZ")
        _finish(p, func)

    p = sub.add_parser("sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    _finish(p, _cmd_sweep, budget=True)

    p = sub.add_parser("gm")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    _finish(p, _cmd_gm)

    p = sub.add_parser("survey")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("auto", "exhaustive", "sampled"),
                   default="auto")
    _finish(p, _cmd_survey)

    p = sub.add_parser("allk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--kmax", type=int, default=4)
    _finish(p, _cmd_allk, budget=True)

    iv = sub.add_parser("intervals")
    ivs = iv.add_subparsers(dest="subcommand", required=True,
                            parser_class=_Parser)
    p = ivs.add_parser("deck")
    p.add_argument("--set", required=True,
                   help="IntervalSet JSON (inline or a file path)")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _finish(p, _cmd_intervals_deck)
    p = ivs.add_parser("gaps")
    p.add_argument("--set", required=True)
    _finish(p, _cmd_intervals_gaps)
    p = ivs.add_parser("ddx")
    p.add_argument("--set", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _finish(p, _cmd_intervals_ddx)
    p = ivs.add_parser("translate")
    p.add_argument("--set", required=True)
    p.add_argument("--other", required=True)
    p.add_argument("--tol", default="0")
    _finish(p, _cmd_intervals_translate)

    rl = sub.add_parser("rline")
    rls = rl.add_subparsers(dest="subcommand", required=True,
                            parser_class=_Parser)
    p = rls.add_parser("cospair")
    _add_pair_args(p)
    p.add_argument("--save-prefix")
    _finish(p, _cmd_rline_cospair, budget=True)
    p = rls.add_parser("riesz")
    p.add_argument("--signs", required=True, help="e.g. 1,-1")
    p.add_argument("--amps", required=True, help="e.g. 1/2,1/4")
    _add_pair_args(p)
    _finish(p, _cmd_rline_riesz, budget=True)
    p = rls.add_parser("stability")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    _finish(p, _cmd_rline_stability)
    p = rls.add_parser("norms")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--draws", type=int, default=200)
    _finish(p, _cmd_rline_norms, budget=True)
    p = rls.add_parser("continuity")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--h", default="1/256")
    p.add_argument("--radii", default="0.2,0.1,0.05,0.025")
    _finish(p, _cmd_rline_continuity)

    return top


def _manifest(args, t0: float, outputs: list) -> RunManifest:
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "out") and not callable(v)}
    return RunManifest(
        command=" ".join(s for s in (args.command,
                                     getattr(args, "subcommand", None)) if s),
        parameters=params,
        seed=getattr(args, "seed", None),
        versions={"trideck": __version__, "numpy": np.__version__,
                  "python": platform.python_version()},
        wall_time=round(time.monotonic() - t0, 4),
        output_paths=outputs,
    )


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    t0 = time.monotonic()
    try:
        result, text = args.func(args)
    except BudgetError as e:
        print(f"trideck: budget refusal: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (TrideckError, ValueError, ZeroDivisionError, OSError) as e:
        print(f"trideck: error: {e}", file=sys.stderr)
        return EXIT_DOMAIN

    payload = text if text is not None else \
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    outputs = []
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        outputs.append(args.out)
        manifest = _manifest(args, t0, outputs)
        mpath = args.out + ".manifest.json"
        with open(mpath, "w") as fh:
            json.dump(manifest.to_json_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.out} (+ manifest)", file=sys.stderr)
    else:
        sys.stdout.write(payload)
        manifest = _manifest(args, t0, outputs)
        print(json.dumps(manifest.to_json_dict(), sort_keys=True),
              file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
