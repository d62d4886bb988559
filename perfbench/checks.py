"""Output checks: each takes the text a `trideck` command printed and the
parameters of the operation, and raises CheckFailure if the output is wrong.

Every check compares against reference.py, or against a property the method
must have, never against trideck itself.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

import reference as ref

DECK_REPRO_TOL = 1e-9  # pq family: candidate deck vs input deck, of scale
NOISY_TOL = 1e-6  # noisy deck: relative l-inf distance to a rotation


class CheckFailure(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def check_sweep(text: str, n: int, k: int) -> None:
    out = json.loads(text)
    orbits, decks, classes = ref.sweep_reference(n, k)
    header = (out["n"], out["k"], out["total_sets"])
    _require(header == (n, k, 1 << n), f"sweep n={n}: header {header}")
    stats = out["runtime_stats"]
    _require(orbits == ref.necklace_count(n), "reference orbit count")
    _require(stats["orbit_reps"] == orbits,
             f"sweep n={n}: orbit_reps {stats['orbit_reps']} != {orbits}")
    _require(stats["deck_classes"] == decks,
             f"sweep n={n}: deck_classes {stats['deck_classes']} != {decks}")
    got = set()
    for cls in out["ambiguous_classes"]:
        masks = [ref.canonical_mask(s, n) for s in cls]
        _require(len(set(masks)) == len(masks) >= 2,
                 f"sweep n={n}: class {cls} repeats an orbit")
        first = ref.int_deck(ref.mask_bits(np.array([masks[0]]), n)[0], k)
        for m in masks[1:]:
            other = ref.int_deck(ref.mask_bits(np.array([m]), n)[0], k)
            _require(np.array_equal(first, other),
                     f"sweep n={n}: class {cls} has unequal decks")
        got.add(frozenset(masks))
    _require(got == classes,
             f"sweep n={n}: {len(got)} classes differ from the "
             f"{len(classes)} of the brute-force grouping")


def check_survey(text: str, n: int) -> None:
    out = json.loads(text)
    hits = ref.survey_hits(n)
    total = 1 << n
    _require(out["mode"] == "exhaustive" and out["samples"] == total,
             f"survey n={n}: not an exhaustive count")
    _require(out["hits"] == hits,
             f"survey n={n}: hits {out['hits']} != {hits}")
    _require(Fraction(out["exact"]) == Fraction(hits, total),
             f"survey n={n}: exact proportion {out['exact']}")


def check_gm(text: str, n: int) -> None:
    out = json.loads(text)
    E, F = out["E"], out["F"]
    _require(out["n"] == n, f"gm: n={out['n']} != {n}")
    fE = [1 if j in E else 0 for j in range(n)]
    fF = [1 if j in F else 0 for j in range(n)]
    _require(not ref.is_rotation(fE, fF), "gm: E and F are translates")
    _require(np.array_equal(ref.int_deck(fE, 3), ref.int_deck(fF, 3)),
             "gm: the 3-decks differ")
    _require(not np.array_equal(ref.int_deck(fE, 4), ref.int_deck(fF, 4)),
             "gm: the 4-decks are equal")


def check_allk(text: str, n: int, E: list, F: list, kmax: int) -> None:
    out = json.loads(text)
    fE = [1 if j in E else 0 for j in range(n)]
    fF = [1 if j in F else 0 for j in range(n)]
    first = next((k for k in range(2, kmax + 1)
                  if not np.array_equal(ref.int_deck(fE, k),
                                        ref.int_deck(fF, k))), None)
    _require(out["first_differing_k"] == first,
             f"allk: first_differing_k {out['first_differing_k']} != {first}")
    _require(out["translate_shift"] is None, "allk: reported a translate")


def _deck_entries(values: list, k: int):
    I, Q = ref.rational_deck([Fraction(v) for v in values], k)
    return [Fraction(int(x), Q) for x in I.reshape(-1).tolist()]


def check_deck_json(text: str, values: list, k: int) -> None:
    out = json.loads(text)
    n = len(values)
    _require((out["n"], out["k"]) == (n, k),
             f"deck: header {out['n'], out['k']}")
    got = [ref.parse_rational(x) for x in out["values"]]
    want = _deck_entries(values, k)
    _require(len(got) == len(want),
             f"deck: {len(got)} entries, want {len(want)}")
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    _require(not bad, f"deck n={n} k={k}: {len(bad)} entries wrong, "
             f"first at flat index {bad[:1]}")


def check_deck_csv(text: str, values: list, k: int) -> None:
    n = len(values)
    header, *rows = text.rstrip("\n").split("\n")
    _require(header == f"# n={n},k={k},convention=positive-exponent",
             f"deck csv: header {header!r}")
    _require(len(rows) == n ** max(k - 2, 0), f"deck csv: {len(rows)} rows")
    got = [Fraction(x) for row in rows for x in row.split(",")]
    want = _deck_entries(values, k)
    _require(got == want, f"deck csv n={n} k={k}: entries differ")


def _candidate_values(cand: dict) -> list[Fraction]:
    return [ref.parse_rational(x) for x in cand["values"]]


def check_rotation(text: str, values: list) -> None:
    out = json.loads(text)
    _require(out["uniqueness"]["kind"] == "UniqueUpToTranslation",
             f"reconstruct: kind {out['uniqueness']['kind']}")
    _require(len(out["candidates"]) == 1,
             f"reconstruct: {len(out['candidates'])} candidates")
    want = [Fraction(v) for v in values]
    for cand in out["candidates"]:
        _require(ref.is_rotation(_candidate_values(cand), want),
                 "reconstruct: candidate is not a rotation of the input")


def check_pq_family(text: str, values: list, p: int, q: int) -> None:
    out = json.loads(text)
    cands = [_candidate_values(c) for c in out["candidates"]]
    _require(out["uniqueness"] == {"kind": "FiniteFamily", "count": p * q},
             f"pq family: uniqueness {out['uniqueness']}")
    _require(len(cands) == p * q and len({tuple(c) for c in cands}) == p * q,
             f"pq family: {len(cands)} candidates, want {p * q} distinct")
    want = [Fraction(v) for v in values]
    _require(any(ref.is_rotation(c, want) for c in cands),
             "pq family: no candidate is a rotation of the input")
    deck = ref.float_deck3([float(v) for v in want])
    scale = float(np.max(np.abs(deck)))
    for c in cands:
        _require(min(c) >= 0, "pq family: a candidate is negative")
        err = float(np.max(np.abs(ref.float_deck3([float(x) for x in c])
                                  - deck)))
        _require(err <= DECK_REPRO_TOL * scale,
                 f"pq family: a candidate's deck is off by {err / scale:.3g}")


def check_noisy(text: str, values: list) -> None:
    out = json.loads(text)
    _require(len(out["candidates"]) >= 1, "noisy deck: no candidate")
    for cand in out["candidates"]:
        dist = ref.rotation_distance(
            [float(x) for x in _candidate_values(cand)], values)
        _require(dist <= NOISY_TOL,
                 f"noisy deck: candidate is {dist:.3g} from every rotation")


def check_cospair(text: str, h: str, samples: int) -> None:
    out = json.loads(text)
    _require(out["h"] == float(Fraction(h)) and out["samples"] == samples,
             f"cospair: grid h={out['h']} samples={out['samples']}")
    _require(out["deck_rel_error"] <= 1e-12,
             f"cospair: deck_rel_error {out['deck_rel_error']}")
    _require(out["shift_scan_distance"] > 0.05,
             f"cospair: shift_scan_distance {out['shift_scan_distance']}")


CHECKS = {
    "sweep": check_sweep, "survey": check_survey, "gm": check_gm,
    "allk": check_allk, "deck_json": check_deck_json,
    "deck_csv": check_deck_csv, "rotation": check_rotation,
    "pq_family": check_pq_family, "noisy": check_noisy,
    "cospair": check_cospair,
}


def check(kind: str, text: str, params: dict) -> None:
    """Run one check; malformed output counts as a failed check."""
    try:
        CHECKS[kind](text, **params)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise CheckFailure(f"{kind}: malformed output ({e!r})") from e
