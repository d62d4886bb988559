"""Tests of the benchmark itself: the reference computations against known
values, and the output checks against corrupted outputs.

Run from the repository root with:  python3 -m pytest -q perfbench/selftest.py
(The file name keeps it out of the library's own test collection.)
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


# ---------------------------------------------------------------------------
# Reference computations against known values.

@pytest.mark.parametrize("n,count", [(1, 2), (2, 3), (6, 14), (14, 1182),
                                     (16, 4116), (18, 14602)])
def test_necklace_counts(n, count):
    assert ref.necklace_count(n) == count


def test_canonical_masks_count_orbits():
    for n in (5, 6, 12):
        assert len(np.unique(ref.canonical_masks(n))) == ref.necklace_count(n)


def test_hand_computed_deck():
    # f = (1, 2, 0): N(a, b) = sum_t f_t f_{t+a} f_{t+b}
    assert ref.int_deck([1, 2, 0], 3).tolist() == [[9, 2, 4], [2, 4, 0],
                                                   [4, 0, 2]]
    assert ref.int_deck([1, 2, 0], 2).tolist() == [5, 2, 2]
    I, Q = ref.rational_deck([Fraction(1, 2), Fraction(1), Fraction(0)], 3)
    assert Q == 8 and I.tolist() == [[9, 2, 4], [2, 4, 0], [4, 0, 2]]


def test_float_deck_matches_int_deck():
    v = [3, 1, 4, 1, 5, 9, 2]
    assert np.array_equal(ref.float_deck3(v), ref.int_deck(v, 3))


def test_sweep_reference_n18_has_seven_classes():
    orbits, _, classes = ref.sweep_reference(18, 3)
    assert orbits == 14602
    assert len(classes) == 7
    assert all(len(c) >= 2 for c in classes)


def test_sweep_reference_small_moduli_are_determined():
    # every subset of Z/nZ is determined by its 3-deck for n <= 9
    for n in range(1, 10):
        assert ref.sweep_reference(n, 3)[2] == set()


@pytest.mark.parametrize("n,hits", [(2, 2), (3, 2), (4, 8)])
def test_survey_hits_by_hand(n, hits):
    # n=4: f0=f2 and f1=f3 (4 sets) or f0+f2=f1+f3 (6 sets), 2 in both
    assert ref.survey_hits(n) == hits


def test_gm_pair_properties():
    E, F = workloads.GM_PAIR
    fE = [1 if j in E else 0 for j in range(18)]
    fF = [1 if j in F else 0 for j in range(18)]
    assert np.array_equal(ref.int_deck(fE, 3), ref.int_deck(fF, 3))
    assert not np.array_equal(ref.int_deck(fE, 4), ref.int_deck(fF, 4))
    assert not ref.is_rotation(fE, fF)


def test_symmetrised_noise_keeps_deck_symmetries():
    E = ref.symmetrise3(np.random.default_rng(0).standard_normal((7, 7)))
    N = ref.float_deck3([2, 0, 1, 5, 3, 3, 1]) + E
    a, b = 2, 5
    for x, y in [(b, a), (-a, b - a), (b - a, -a), (-b, a - b), (a - b, -b)]:
        assert N[x % 7, y % 7] == pytest.approx(N[a, b], rel=1e-12)


def test_inputs_repeat_for_a_seed(tmp_path):
    for wl in workloads.WORKLOADS:
        a = workloads.build(wl, 5, str(tmp_path))
        b = workloads.build(wl, 5, str(tmp_path))
        assert [op["argv"] for op in a] == [op["argv"] for op in b]
        assert sum(op["largest"] for op in a) == 1


def test_benchmark_json_lists_the_reported_metrics():
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}


# ---------------------------------------------------------------------------
# Each check accepts a correct output and rejects a corrupted one.

def _deck_output(values, k):
    I, Q = ref.rational_deck([Fraction(v) for v in values], k)
    entries = [Fraction(int(x), Q) for x in I.reshape(-1).tolist()]
    return {"n": len(values), "k": k, "convention": "positive-exponent",
            "values": [int(e) if e.denominator == 1 else str(e)
                       for e in entries]}


def test_deck_check_rejects_a_flipped_entry():
    values = ["1/2", "3", "0", "5/3", "2"]
    out = _deck_output(values, 3)
    checks.check("deck_json", json.dumps(out), {"values": values, "k": 3})
    out["values"][7] = str(Fraction(out["values"][7]) + Fraction(1, 6))
    with pytest.raises(checks.CheckFailure):
        checks.check("deck_json", json.dumps(out), {"values": values, "k": 3})


def test_deck_csv_check_rejects_a_flipped_entry():
    values = ["1/2", "3", "0", "5/3"]
    entries = [str(Fraction(v)) for v in _deck_output(values, 3)["values"]]
    rows = [",".join(entries[i:i + 4]) for i in range(0, 16, 4)]
    text = "# n=4,k=3,convention=positive-exponent\n" + "\n".join(rows) + "\n"
    checks.check("deck_csv", text, {"values": values, "k": 3})
    bad = text.replace(entries[5], entries[5] + "1", 1)
    with pytest.raises(checks.CheckFailure):
        checks.check("deck_csv", bad, {"values": values, "k": 3})


def _reconstruction(cands, kind="UniqueUpToTranslation", count=None):
    return json.dumps({"candidates": [{"n": len(c), "values": list(c)}
                                      for c in cands],
                       "uniqueness": {"kind": kind, "count": count},
                       "gauge_shift": 0, "trace": []})


def test_rotation_check_rejects_a_non_rotation():
    v = [3, 1, 4, 1, 5, 9, 2, 6]
    checks.check("rotation", _reconstruction([v[3:] + v[:3]]), {"values": v})
    swapped = v[3:] + v[:3]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(checks.CheckFailure):
        checks.check("rotation", _reconstruction([swapped]), {"values": v})


def test_pq_check_rejects_a_non_member():
    p, q = 3, 5
    u, w = [0, 2, 1], [1, 4, 2, 2, 3]
    family = [[u[(j - a) % p] + w[(j - b) % q] for j in range(15)]
              for a in range(p) for b in range(q)]
    params = {"values": family[0], "p": p, "q": q}
    checks.check("pq_family", _reconstruction(family, "FiniteFamily", 15),
                 params)
    family[4][0] += 1  # no longer reproduces the input deck
    with pytest.raises(checks.CheckFailure):
        checks.check("pq_family", _reconstruction(family, "FiniteFamily", 15),
                     params)


def _sweep_output(n, k):
    orbits, decks, classes = ref.sweep_reference(n, k)
    cls = [sorted([j for j in range(n) if m >> j & 1] for m in c)
           for c in classes]
    return {"n": n, "k": k, "total_sets": 1 << n, "ambiguous_classes": cls,
            "runtime_stats": {"seconds": 0.1, "orbit_reps": orbits,
                              "deck_classes": decks}}


def test_sweep_check_rejects_a_dropped_member():
    out = _sweep_output(18, 3)
    checks.check("sweep", json.dumps(out), {"n": 18, "k": 3})
    big = max(out["ambiguous_classes"], key=len)
    big.pop()
    with pytest.raises(checks.CheckFailure):
        checks.check("sweep", json.dumps(out), {"n": 18, "k": 3})


def test_sweep_check_rejects_a_wrong_orbit_count():
    out = _sweep_output(14, 3)
    out["runtime_stats"]["orbit_reps"] += 1
    with pytest.raises(checks.CheckFailure):
        checks.check("sweep", json.dumps(out), {"n": 14, "k": 3})


def test_allk_and_gm_checks_reject_wrong_claims():
    E, F = workloads.GM_PAIR
    params = {"n": 18, "E": list(E), "F": list(F), "kmax": 4}
    good = {"n": 18, "k_max": 4, "first_differing_k": 4,
            "translate_shift": None, "decks_all_equal": False}
    checks.check("allk", json.dumps(good), params)
    with pytest.raises(checks.CheckFailure):
        checks.check("allk", json.dumps(dict(good, first_differing_k=3)),
                     params)
    gm = {"n": 18, "E": list(E), "F": list(F), "provenance": {}}
    checks.check("gm", json.dumps(gm), {"n": 18})
    with pytest.raises(checks.CheckFailure):
        checks.check("gm", json.dumps(dict(gm, F=[(e + 5) % 18 for e in E])),
                     {"n": 18})


def test_noisy_check_rejects_a_far_candidate():
    v = [3, 1, 4, 1, 5]
    near = [x * (1 + 1e-8) for x in v[2:] + v[:2]]
    checks.check("noisy", _reconstruction([[repr(x) for x in near]]),
                 {"values": v})
    far = [x * (1 + 1e-4) for x in v]
    with pytest.raises(checks.CheckFailure):
        checks.check("noisy", _reconstruction([[repr(x) for x in far]]),
                     {"values": v})


def test_malformed_output_fails_the_check():
    with pytest.raises(checks.CheckFailure):
        checks.check("rotation", "not json", {"values": [1, 2]})
