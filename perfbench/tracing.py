"""Per-layer spans for the traced run, recorded from outside the library.

While a Tracer is installed, every module attribute through which trideck's
layers call one another is rebound to a timing wrapper; uninstall() puts the
original functions back.  The library source is not touched.  A span whose
function no longer exists is reported as absent, and so is every metric
built on it.
"""

from __future__ import annotations

import fnmatch
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _deck_entries(a, result):
    return {"deck_entries": a["f"].n ** (a["k"] - 1)}


def _sweep_counts(a, result):
    stats = result.runtime_stats
    return {"masks": 2 ** a["n"], "orbit_reps": stats["orbit_reps"],
            "deck_classes": stats["deck_classes"],
            "ambiguous_classes": len(result.ambiguous_classes)}


def _constraints(a, result):
    """Constraints phase propagation checks once the support is reached:
    in-support (l1 <= l2, l1 + l2) triples plus one conjugacy pair per l."""
    support, n = a["support"], a["B"].n
    support = getattr(support, "support", support)
    m = np.zeros(n, dtype=bool)
    m[[int(l) % n for l in support]] = True
    idx = np.arange(n)
    pairs = m[:, None] & m[None, :] & m[(idx[:, None] + idx[None, :]) % n]
    return {"constraints": int(np.count_nonzero(np.triu(pairs)))
            + int(np.count_nonzero(m & m[(-idx) % n]))}


def _verify_accepted(a, result):
    return {"verify_accepted": int(bool(result))}


def _grid_flops(a, result):
    L = len(a["f"].values)
    m = L - 1 if a["max_offset"] is None else int(a["max_offset"])
    offsets = len(range(-m, m + 1, a["stride"]))
    return {"grid_deck_flops": 2 * offsets * offsets * L}


def _scan_macs(a, result):
    lf, lg = len(a["f"].values), len(a["g"].values)
    return {"shift_scan_macs": lf * lg + lf * (lg - 1)}


# (span, module defining the function, attribute or pattern, counter)
SPANS = [
    ("cli.main", "trideck.cli", "main", None),
    ("cli.handler", "trideck.cli", "_cmd_*", None),
    ("cyclic.k_deck", "trideck.cyclic", "k_deck", _deck_entries),
    ("cyclic.deck_core", "trideck.cyclic", "_deck_int64", None),
    ("cyclic.deck_equal", "trideck.cyclic", "deck_equal", None),
    ("cyclic.fft_deck", "trideck.cyclic", "three_deck_fft", None),
    ("cyclic.canonical_rotation", "trideck.cyclic", "canonical_rotation",
     None),
    ("determinacy.sweep", "trideck.determinacy", "exhaustive_determinacy",
     _sweep_counts),
    ("determinacy.survey", "trideck.determinacy", "survey_zero_proportion",
     None),
    ("determinacy.gm", "trideck.determinacy", "gm_counterexample", None),
    ("determinacy.allk", "trideck.determinacy", "verify_all_k_uniqueness",
     None),
    ("reconstruct.total", "trideck.reconstruct", "reconstruct_from_deck",
     None),
    ("reconstruct.bispectrum", "trideck.cyclic", "bispectrum_from_deck",
     None),
    ("reconstruct.magnitudes", "trideck.reconstruct",
     "magnitudes_from_bispectrum", None),
    ("reconstruct.propagate", "trideck.reconstruct", "propagate_phases",
     _constraints),
    ("reconstruct.verify", "trideck.reconstruct", "_verify_deck",
     _verify_accepted),
    ("reconstruct.pq_family", "trideck.reconstruct", "_pq_family", None),
    ("reconstruct.inverse", "trideck.reconstruct", "_inverse_to_function",
     None),
    ("realline.grid_deck", "trideck.realline", "three_deck_grid",
     _grid_flops),
    ("realline.shift_scan", "trideck.realline", "shift_scan_distance",
     _scan_macs),
    ("realline.cos_pair", "trideck.realline", "cos_pair", None),
]
class Recorder:
    """Aggregated spans: calls, total and self time per span name, and calls
    and time of each span beneath each enclosing span (at any depth)."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child time]
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.under_calls = Counter()  # (ancestor, name)
        self.under_time = Counter()
        self.counts = Counter()
        self.broken = set()  # "<span>:counts" whose arguments no longer fit

    def close(self, name: str, dt: float, child: float) -> None:
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += dt - child
        if self.stack:
            self.stack[-1][1] += dt
        for anc in {frame[0] for frame in self.stack}:
            self.under_calls[anc, name] += 1
            self.under_time[anc, name] += dt


class Tracer:
    def __init__(self, rec: Recorder):
        self.rec = rec
        self.saved: list[tuple] = []
        self.absent: set[str] = set()

    def _wrap(self, fn, span, counter):
        rec = self.rec
        sig = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            rec.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec.stack.pop()
                rec.close(span, dt, frame[1])
            if counter:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec.counts.update(counter(bound.arguments, result))
                except (TypeError, KeyError, AttributeError):
                    rec.broken.add(span + ":counts")
            return result

        return traced

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if name == "trideck" or name.startswith("trideck.")]
        for span, modname, pattern, counter in SPANS:
            home = sys.modules.get(modname)
            names = fnmatch.filter(vars(home), pattern) if home else []
            fns = [getattr(home, a) for a in names
                   if inspect.isfunction(getattr(home, a))]
            if not fns:
                self.absent |= {span, span + ":counts"}
            for fn in fns:
                traced = self._wrap(fn, span, counter)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, traced)
                            self.saved.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.saved):
            setattr(mod, attr, fn)
        self.saved.clear()


# name -> (unit, what it is built from: spans, and "<span>:counts" for the
# counts computed from a span's arguments and result)
PER_LAYER = {
    "cli.main_s": ("s", ["cli.main"]),
    "cli.handler_s": ("s", ["cli.handler"]),
    "cli.io_s": ("s", ["cli.main", "cli.handler"]),
    "cli.output_bytes": ("bytes", ["cli.main"]),
    "cyclic.k_deck_s": ("s", ["cyclic.k_deck"]),
    "cyclic.k_deck_calls": ("count", ["cyclic.k_deck"]),
    "cyclic.deck_entries": ("count", ["cyclic.k_deck:counts"]),
    "cyclic.deck_core_s": ("s", ["cyclic.deck_core"]),
    "cyclic.deck_core_calls": ("count", ["cyclic.deck_core"]),
    "cyclic.boxing_s": ("s", ["cyclic.k_deck", "cyclic.deck_core"]),
    "cyclic.deck_equal_s": ("s", ["cyclic.deck_equal"]),
    "cyclic.deck_equal_calls": ("count", ["cyclic.deck_equal"]),
    "cyclic.fft_deck_s": ("s", ["cyclic.fft_deck"]),
    "cyclic.fft_deck_calls": ("count", ["cyclic.fft_deck"]),
    "cyclic.canonical_rotation_s": ("s", ["cyclic.canonical_rotation"]),
    "determinacy.sweep_s": ("s", ["determinacy.sweep"]),
    "determinacy.sweep_self_s": ("s", ["determinacy.sweep", "cyclic.k_deck",
                                       "cyclic.deck_core",
                                       "cyclic.deck_equal"]),
    "determinacy.reverify_s": ("s", ["determinacy.sweep", "cyclic.k_deck",
                                     "cyclic.deck_equal"]),
    "determinacy.masks": ("count", ["determinacy.sweep:counts"]),
    "determinacy.orbit_reps": ("count", ["determinacy.sweep:counts"]),
    "determinacy.deck_classes": ("count",
                                 ["determinacy.sweep:counts"]),
    "determinacy.ambiguous_classes": ("count",
                                      ["determinacy.sweep:counts"]),
    "determinacy.reverify_decks": ("count", ["determinacy.sweep",
                                             "cyclic.k_deck"]),
    "determinacy.decks_per_orbit": ("ratio", ["determinacy.sweep:counts",
                                              "cyclic.deck_core"]),
    "determinacy.survey_s": ("s", ["determinacy.survey"]),
    "determinacy.gm_s": ("s", ["determinacy.gm"]),
    "determinacy.gm_k_deck_calls": ("count", ["determinacy.gm",
                                              "cyclic.k_deck"]),
    "determinacy.allk_s": ("s", ["determinacy.allk"]),
    "reconstruct.total_s": ("s", ["reconstruct.total"]),
    "reconstruct.bispectrum_s": ("s", ["reconstruct.bispectrum"]),
    "reconstruct.magnitudes_s": ("s", ["reconstruct.magnitudes"]),
    "reconstruct.propagate_s": ("s", ["reconstruct.propagate"]),
    "reconstruct.propagate_calls": ("count", ["reconstruct.propagate"]),
    "reconstruct.constraints": ("count",
                                ["reconstruct.propagate:counts"]),
    "reconstruct.verify_s": ("s", ["reconstruct.verify"]),
    "reconstruct.verify_calls": ("count", ["reconstruct.verify"]),
    "reconstruct.verify_yield": ("ratio", ["reconstruct.verify:counts"]),
    "reconstruct.pq_family_s": ("s", ["reconstruct.pq_family"]),
    "reconstruct.inverse_s": ("s", ["reconstruct.inverse"]),
    "realline.grid_deck_s": ("s", ["realline.grid_deck"]),
    "realline.grid_deck_flops": ("flop", ["realline.grid_deck:counts"]),
    "realline.shift_scan_s": ("s", ["realline.shift_scan"]),
    "realline.shift_scan_macs": ("mac", ["realline.shift_scan:counts"]),
    "realline.cos_pair_s": ("s", ["realline.cos_pair"]),
    "trace.overhead_s": ("s", []),
}


def layer_metrics(rec: Recorder, absent: set[str], rounds: int,
                  output_bytes: int) -> tuple[dict[str, float], list[str]]:
    """Per-round values of every PER_LAYER metric but trace.overhead_s (the
    caller's, from the pass times), and the names that are absent because a
    span or count they need no longer exists."""
    def t(span):
        return rec.total[span] / rounds

    def n(span):
        return rec.calls[span] / rounds

    def under(anc, span):
        return rec.under_calls[anc, span] / rounds

    def count(name):
        return rec.counts[name] / rounds

    sweep = "determinacy.sweep"
    orbits = count("orbit_reps")
    values = {
        "cli.main_s": t("cli.main"),
        "cli.handler_s": t("cli.handler"),
        "cli.io_s": t("cli.main") - t("cli.handler"),
        "cli.output_bytes": output_bytes / rounds,
        "cyclic.k_deck_s": t("cyclic.k_deck"),
        "cyclic.k_deck_calls": n("cyclic.k_deck"),
        "cyclic.deck_entries": count("deck_entries"),
        "cyclic.deck_core_s": t("cyclic.deck_core"),
        "cyclic.deck_core_calls": n("cyclic.deck_core"),
        "cyclic.boxing_s": rec.self_time["cyclic.k_deck"] / rounds,
        "cyclic.deck_equal_s": t("cyclic.deck_equal"),
        "cyclic.deck_equal_calls": n("cyclic.deck_equal"),
        "cyclic.fft_deck_s": t("cyclic.fft_deck"),
        "cyclic.fft_deck_calls": n("cyclic.fft_deck"),
        "cyclic.canonical_rotation_s": t("cyclic.canonical_rotation"),
        "determinacy.sweep_s": t(sweep),
        "determinacy.sweep_self_s": rec.self_time[sweep] / rounds,
        "determinacy.reverify_s": (rec.under_time[sweep, "cyclic.k_deck"]
                                   + rec.under_time[sweep, "cyclic.deck_equal"]
                                   ) / rounds,
        "determinacy.masks": count("masks"),
        "determinacy.orbit_reps": orbits,
        "determinacy.deck_classes": count("deck_classes"),
        "determinacy.ambiguous_classes": count("ambiguous_classes"),
        "determinacy.reverify_decks": under(sweep, "cyclic.k_deck"),
        "determinacy.decks_per_orbit": (under(sweep, "cyclic.deck_core")
                                        / orbits if orbits else 0.0),
        "determinacy.survey_s": t("determinacy.survey"),
        "determinacy.gm_s": t("determinacy.gm"),
        "determinacy.gm_k_deck_calls": under("determinacy.gm",
                                             "cyclic.k_deck"),
        "determinacy.allk_s": t("determinacy.allk"),
        "reconstruct.total_s": t("reconstruct.total"),
        "reconstruct.bispectrum_s": t("reconstruct.bispectrum"),
        "reconstruct.magnitudes_s": t("reconstruct.magnitudes"),
        "reconstruct.propagate_s": t("reconstruct.propagate"),
        "reconstruct.propagate_calls": n("reconstruct.propagate"),
        "reconstruct.constraints": count("constraints"),
        "reconstruct.verify_s": t("reconstruct.verify"),
        "reconstruct.verify_calls": n("reconstruct.verify"),
        "reconstruct.verify_yield": (count("verify_accepted")
                                     / n("reconstruct.verify")
                                     if rec.calls["reconstruct.verify"]
                                     else 0.0),
        "reconstruct.pq_family_s": t("reconstruct.pq_family"),
        "reconstruct.inverse_s": t("reconstruct.inverse"),
        "realline.grid_deck_s": t("realline.grid_deck"),
        "realline.grid_deck_flops": count("grid_deck_flops"),
        "realline.shift_scan_s": t("realline.shift_scan"),
        "realline.shift_scan_macs": count("shift_scan_macs"),
        "realline.cos_pair_s": t("realline.cos_pair"),
    }
    unusable = absent | rec.broken
    missing = [name for name, (_, needs) in PER_LAYER.items()
               if unusable.intersection(needs)]
    return values, missing
