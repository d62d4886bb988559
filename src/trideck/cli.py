"""Command-line entry point.

Every run emits a manifest (to stderr, or next to the output file when
--out is given) so that (command, parameters, seed) reproduce the primary
output byte for byte.  Exit codes: 0 success, 1 domain error, 2 budget
refusal, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import re
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .config import compute_budget
from .cyclic import (MAX_DECK_ORDER, CyclicFunction, KDeck, bispectrum,
                     k_deck)
from .cyclotomic import classify_zero_pattern, zero_set
from .determinacy import (exhaustive_determinacy, gm_counterexample,
                          survey_zero_proportion, verify_all_k_uniqueness)
from .errors import BudgetError, DomainError, TrideckError
from .intervals import (IntervalSet, gap_functional, gap_profile,
                        partial_x_deck, translate_equal_sets,
                        triple_correlation_exact)
from .realline import (SampledFunction, _check_step, continuity_probe,
                       cos_pair, indicator_stability_check,
                       norm_inequality_test, riesz_pair, shift_scan_distance,
                       three_deck_grid)
from .reconstruct import reconstruct_from_deck

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A word that is no option of the parser and starts with "-" and a
        # digit, or "-." and a digit, is a value: -1/256, -1e999 and -1,2
        # as well as the -1 and -0.5 that argparse already takes.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise _UsageError(f"{self.prog}: error: {message}\n"
                          f"{self.format_usage()}")


# ---------------------------------------------------------------------------
# Argument helpers.

def _int_list(s: str) -> list[int]:
    s = s.strip()
    if not s:
        return []
    return [int(t) for t in s.split(",")]


def _rational(text: str, option: str) -> Fraction:
    """The rational number `text` that `option` gave, or a DomainError that
    names both.  ASCII digits alone take int(), which gives the same value
    as Fraction(text) at a sixth of the cost."""
    if text.isascii() and text.isdigit():
        return Fraction(int(text))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(
            f"{option} {text!r} is not a rational number") from None


def _real(text: str, option: str) -> float:
    """float(_rational(text, option)), or a DomainError that names both
    when the rational is too large for a float."""
    try:
        return float(_rational(text, option))
    except OverflowError:
        raise DomainError(
            f"{option} {text!r} is too large for a float") from None


def _function_from_args(args) -> CyclicFunction:
    """The function --values gives, or the indicator of --set in Z/nZ."""
    if args.values is not None:
        vals = [_rational(t, "--values") for t in args.values.split(",")]
        if args.n not in (None, len(vals)):
            _leaf_parser(_words(args)).error(
                f"--n {args.n} but {len(vals)} values given")
        return CyclicFunction.of(vals)
    if args.n is None:
        _leaf_parser(_words(args)).error("--set requires --n")
    return CyclicFunction.indicator(args.n, _int_list(args.set))


def _charge_function(args, power: int, what: str) -> None:
    """Refuse a result of n^power entries over the compute budget before
    the function of --n or --values is built."""
    n = args.n if args.values is None else len(args.values.split(","))
    if n is not None and n**power > compute_budget(
            getattr(args, "budget", None)):
        raise BudgetError(f"the {what} at n={n} has {n}^{power} entries, "
                          "over the compute budget")


def _interval_set(spec: str) -> IntervalSet:
    if os.path.exists(spec):
        with open(spec) as fh:
            return IntervalSet.from_json_dict(json.load(fh))
    return IntervalSet.from_json_dict(json.loads(spec))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns a result dict, or the finished text of
# the primary output.

def _cmd_deck(args):
    if args.k <= MAX_DECK_ORDER:  # k_deck refuses a larger order as such
        _charge_function(args, args.k, f"{args.k}-deck")
    deck = k_deck(_function_from_args(args), args.k, args.budget)
    if args.format == "csv":
        return deck.to_csv()
    return deck.to_json()


def _cmd_bispectrum(args):
    # charged here, not in bispectrum(), which reconstruct's verification
    # calls under its own --budget
    _charge_function(args, 2, "bispectrum")
    return bispectrum(_function_from_args(args)).to_json_dict()


def _cmd_reconstruct(args):
    if args.deck is not None:
        with open(args.deck) as fh:
            deck = KDeck.from_json_dict(json.load(fh))
    else:
        _charge_function(args, 3, "3-deck")
        deck = k_deck(_function_from_args(args), 3, args.budget)
    return reconstruct_from_deck(deck).to_json()


def _cmd_zeros(args):
    return zero_set(args.n, _int_list(args.set)).to_json_dict()


def _cmd_classify(args):
    pattern = zero_set(args.n, _int_list(args.set))
    return classify_zero_pattern(args.n, pattern).to_json_dict()


def _cmd_sweep(args):
    return exhaustive_determinacy(args.n, args.k,
                                  args.budget).to_json_dict()


def _cmd_gm(args):
    return gm_counterexample(args.p, args.q, args.r).to_json_dict()


def _cmd_survey(args):
    res = survey_zero_proportion(args.n, args.samples, args.seed, args.mode)
    return res.to_json_dict()


def _cmd_allk(args):
    f = CyclicFunction.indicator(args.n, _int_list(args.set))
    g = CyclicFunction.indicator(args.n, _int_list(args.other))
    res = verify_all_k_uniqueness(f, g, args.kmax, args.budget)
    return res.to_json_dict()


def _cmd_intervals_deck(args):
    E = _interval_set(args.set)
    x, y = _rational(args.x, "--x"), _rational(args.y, "--y")
    val = triple_correlation_exact(E, x, y)
    gap = gap_functional(E, x, y)
    return {"N": str(val), "G": str(gap)}


def _cmd_intervals_gaps(args):
    return gap_profile(_interval_set(args.set)).to_json_dict()


def _cmd_intervals_ddx(args):
    E = _interval_set(args.set)
    x, y = _rational(args.x, "--x"), _rational(args.y, "--y")
    return {"ddx": partial_x_deck(E, x, y)}


def _cmd_intervals_translate(args):
    E = _interval_set(args.set)
    F = _interval_set(args.other)
    shift = translate_equal_sets(E, F, _rational(args.tol, "--tol"))
    return {"shift": None if shift is None else str(shift)}


def _charge_grid(samples: float, budget=None) -> None:
    """Refuse a grid of more samples than the compute budget before it is
    allocated; inf, which round() refuses, is over every budget."""
    if samples > compute_budget(budget):
        raise BudgetError(f"grid of {samples:.6g} samples exceeds budget")


def _step(text: str) -> float:
    """A --h value, refused unless positive and finite before any grid is
    sized from it."""
    h = _real(text, "--h")
    _check_step(h)
    return h


def _pair_summary(f: SampledFunction, g: SampledFunction, args):
    m = int(round(_real(args.max_x, "--max-x") / f.h))
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
    h = _step(args.h)
    _charge_grid(2 * args.half_width / h + 1, args.budget)
    f, g = cos_pair(args.k, h, args.half_width, args.tail_tol)
    out = _pair_summary(f, g, args)
    if args.save_prefix:
        f.save_csv(args.save_prefix + "_f.csv")
        g.save_csv(args.save_prefix + "_g.csv")
        out["saved"] = [args.save_prefix + "_f.csv",
                        args.save_prefix + "_g.csv"]
    return out


def _cmd_rline_riesz(args):
    h = _step(args.h)
    _charge_grid(2 * args.half_width / h + 1, args.budget)
    f, g = riesz_pair(_int_list(args.signs),
                      [_real(a, "--amps") for a in args.amps.split(",")],
                      args.k, h, args.half_width, args.tail_tol)
    return _pair_summary(f, g, args)


def _cmd_rline_stability(args):
    g = SampledFunction.load_csv(args.infile)
    return indicator_stability_check(g, args.tol).to_json_dict()


def _random_step(rng, h: float, length: int) -> SampledFunction:
    # piecewise-constant nonnegative function with a handful of steps
    n_steps = int(rng.integers(1, 6))
    vals = np.zeros(length)
    for _ in range(n_steps):
        a, b = sorted(rng.integers(0, length, size=2))
        vals[a:b + 1] += float(rng.uniform(0.1, 2.0))
    return SampledFunction(h, 0.0, vals)


def _cmd_rline_norms(args):
    if args.draws < 1:
        raise DomainError(f"--draws must be >= 1, got {args.draws}")
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
            "violations": violations, "worst_ratio": worst}


def _cmd_rline_continuity(args):
    if args.infile is not None:
        f = SampledFunction.load_csv(args.infile)
    else:
        h = _step(args.h)
        _charge_grid(1 / h)
        f = SampledFunction(h, 0.0, np.ones(int(round(1 / h))))
    radii = [_real(r, "--radii") for r in args.radii.split(",")]
    devs = continuity_probe(f, args.k, radii)
    return {"k": args.k, "limit": f.riemann(args.k + 1),
            "deviations": [[r, d] for r, d in devs]}


# ---------------------------------------------------------------------------
# The command tree and dispatch.

_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_SUBSET = {"help": "comma-separated subset of Z/nZ"}
_K3 = ("--k", {"type": int, "default": 3})
_OUT = ("--out", {"help": "write the result JSON/CSV here"})
_BUDGET = ("--budget", {"type": int, "help": "override the compute budget"})
_SOURCE = [("--set", _SUBSET),
           ("--values", {"help": "comma-separated rational values"})]
_ZEROS = [("--n", _REQUIRED_INT), ("--set", {**_SUBSET, **_REQUIRED}),
          _OUT]
_PAIR = [_K3, ("--h", {"default": "1/256"}),
         ("--half-width", {"type": float, "default": 64.0}),
         ("--tail-tol", {"type": float, "default": 1e-2}),
         ("--max-x", {"default": "2", "help": "deck comparison window"}),
         ("--stride", {"type": int, "default": 32})]

# Every command, in the order `trideck --help` lists them.  A dict is a
# group of subcommands; a list holds a leaf's options as (flag, keywords of
# add_argument), and a list inside it is a mutually exclusive group of which
# one option is required.  Only the handlers that pass a compute budget on
# take --budget.
COMMANDS = {
    "deck": [("--n", {"type": int}), _SOURCE, _K3,
             ("--format", {"choices": ("json", "csv"), "default": "json"}),
             _OUT, _BUDGET],
    "bispectrum": [("--n", {"type": int}), _SOURCE, _OUT],
    "reconstruct": [("--n", {"type": int}),
                    _SOURCE + [("--deck",
                                {"help": "path to a 3-deck JSON file"})],
                    _OUT, _BUDGET],
    "zeros": _ZEROS,
    "classify": _ZEROS,
    "sweep": [("--n", _REQUIRED_INT), _K3, _OUT, _BUDGET],
    "gm": [("--p", _REQUIRED_INT), ("--q", _REQUIRED_INT),
           ("--r", _REQUIRED_INT), _OUT],
    "survey": [("--n", _REQUIRED_INT), ("--samples", {"type": int}),
               ("--seed", {"type": int, "default": 0}),
               ("--mode", {"choices": ("auto", "exhaustive", "sampled"),
                           "default": "auto"}), _OUT],
    "allk": [("--n", _REQUIRED_INT), ("--set", _REQUIRED),
             ("--other", _REQUIRED), ("--kmax", {"type": int, "default": 4}),
             _OUT, _BUDGET],
    "intervals": {
        "deck": [("--set", {"required": True, "help":
                            "IntervalSet JSON (inline or a file path)"}),
                 ("--x", _REQUIRED), ("--y", _REQUIRED), _OUT],
        "gaps": [("--set", _REQUIRED), _OUT],
        "ddx": [("--set", _REQUIRED), ("--x", _REQUIRED),
                ("--y", _REQUIRED), _OUT],
        "translate": [("--set", _REQUIRED), ("--other", _REQUIRED),
                      ("--tol", {"default": "0"}), _OUT],
    },
    "rline": {
        "cospair": [*_PAIR, ("--save-prefix", {}), _OUT, _BUDGET],
        "riesz": [("--signs", {"required": True, "help": "e.g. 1,-1"}),
                  ("--amps", {"required": True, "help": "e.g. 1/2,1/4"}),
                  *_PAIR, _OUT, _BUDGET],
        "stability": [("--in", {"dest": "infile", "required": True}),
                      ("--tol", {"type": float, "default": 1e-6}), _OUT],
        "norms": [("--seed", {"type": int, "default": 7}),
                  ("--draws", {"type": int, "default": 200}),
                  _OUT, _BUDGET],
        "continuity": [("--in", {"dest": "infile"}),
                       ("--k", {"type": int, "default": 2}),
                       ("--h", {"default": "1/256"}),
                       ("--radii", {"default": "0.2,0.1,0.05,0.025"}), _OUT],
    },
}


def _add_leaf(p: _Parser, options) -> _Parser:
    """Add a leaf's options to its parser."""
    for opt in options:
        if isinstance(opt, list):
            group = p.add_mutually_exclusive_group(required=True)
            for flag, kw in opt:
                group.add_argument(flag, **kw)
        else:
            p.add_argument(opt[0], **opt[1])
    return p


def build_parser() -> _Parser:
    """The parser of every command."""
    top = _Parser(prog="trideck",
                  description="k-decks, bispectra and reconstruction")
    sub = top.add_subparsers(dest="command", required=True,
                             parser_class=_Parser)
    for name, node in COMMANDS.items():
        p = sub.add_parser(name)
        if isinstance(node, list):
            _add_leaf(p, node)
            continue
        group = p.add_subparsers(dest="subcommand", required=True,
                                 parser_class=_Parser)
        for leaf, options in node.items():
            _add_leaf(group.add_parser(leaf), options)
    return top


@functools.cache
def _leaf_parser(words: tuple):
    """The parser of the leaf that `words` name, alone, as build_parser
    builds it; None if they name no leaf.  It is built once per process
    and holds no handler: main looks the handler up when it runs it."""
    node = COMMANDS
    for word in words:
        node = node.get(word) if isinstance(node, dict) else None
    if not isinstance(node, list):
        return None
    return _add_leaf(_Parser(prog=" ".join(["trideck", *words])), node)


def _parse(argv):
    """Parse argv with only the parser of the leaf it names.  Arguments
    that name no leaf (none, --help, a group alone, an unknown name) or
    hold words the leaf does not know go to the full parser, so that every
    message is the one it gives."""
    depth = 2 if argv and isinstance(COMMANDS.get(argv[0]), dict) else 1
    parser = _leaf_parser(tuple(argv[:depth]))
    if parser is not None:
        names = dict(zip(("command", "subcommand"), argv[:depth]))
        args, unknown = parser.parse_known_args(argv[depth:],
                                                argparse.Namespace(**names))
        if not unknown:
            return args
    return build_parser().parse_args(argv)


def _words(args) -> tuple:
    """The words that named the command args ran, e.g. ("rline", "norms")."""
    return tuple(s for s in (args.command, getattr(args, "subcommand", None))
                 if s)


def _manifest(args, t0: float, outputs: list) -> dict:
    return {
        "command": " ".join(_words(args)),
        "parameters": {k: v for k, v in vars(args).items() if k != "out"},
        "seed": getattr(args, "seed", None),
        "versions": {"trideck": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "wall_time": round(time.monotonic() - t0, 4),
        "output_paths": outputs,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        t0 = time.monotonic()
        # looked up now, so that a rebound _cmd_* is the one run
        result = globals()["_cmd_" + "_".join(_words(args))](args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as e:
        print(f"trideck: budget refusal: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (TrideckError, ValueError, ZeroDivisionError, OSError) as e:
        print(f"trideck: error: {e}", file=sys.stderr)
        return EXIT_DOMAIN

    text = result if isinstance(result, str) else \
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump(_manifest(args, t0, [args.out]), fh, indent=2,
                      sort_keys=True)
        print(f"wrote {args.out} (+ manifest)", file=sys.stderr)
    else:
        sys.stdout.write(text)
        print(json.dumps(_manifest(args, t0, []), sort_keys=True),
              file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
