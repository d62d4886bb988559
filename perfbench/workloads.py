"""The workloads: each is a fixed list of `trideck` command lines, built from
the seed, with the check each output must pass.

An operation is a dict with
  name         short label used in the detailed results,
  argv         the arguments given to trideck.cli.main,
  check        (kind, params) for checks.check,
  largest      True for the one operation behind largest_op_s,
  expect_fail  True for an operation that fails every time today because of
               a known fault; its failures are counted, and its output is
               still checked on the day it succeeds.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

import reference as ref

WORKLOADS = ("sweep", "reconstruct", "decks")

# The 3-deck pair that `trideck gm --p 2 --q 3 --r 3` returns today.  Its
# own properties (equal 3-decks, unequal 4-decks) are checked by the gm
# check and the self-tests, so allk's input does not rest on gm's output.
GM_PAIR = ((0, 1, 3, 4, 5, 6, 7, 8, 11), (0, 7, 10, 11, 12, 13, 14, 15, 17))

NOISY_N = 64
NOISY_SEED = 64  # the failing operation's input must not depend on --seed
NOISY_LEVEL = 1e-9


def _op(name, argv, kind, params, largest=False, expect_fail=False):
    return {"name": name, "argv": [str(a) for a in argv],
            "check": (kind, params), "largest": largest,
            "expect_fail": expect_fail}


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def sweep_ops() -> list[dict]:
    """Exhaustive inputs: nothing here depends on the seed."""
    E, F = GM_PAIR
    ops = [_op(f"sweep_n{n}", ["sweep", "--n", n], "sweep", {"n": n, "k": 3},
               largest=(n == 18)) for n in (14, 16, 18)]
    ops += [
        _op("sweep_n12_k4", ["sweep", "--n", 12, "--k", 4], "sweep",
            {"n": 12, "k": 4}),
        _op("survey_n18", ["survey", "--n", 18], "survey", {"n": 18}),
        _op("gm_2_3_3", ["gm", "--p", 2, "--q", 3, "--r", 3], "gm",
            {"n": 18}),
        _op("allk_gm", ["allk", "--n", 18, "--set", _csv(E), "--other",
                        _csv(F), "--kmax", 4], "allk",
            {"n": 18, "E": list(E), "F": list(F), "kmax": 4}),
    ]
    return ops


def _pq_values(rng, p: int, q: int) -> list[int]:
    """u(j mod p) + v(j mod q) with u, v not constant, so that the spectrum
    lives on the two prime subgroups and the family has p*q members."""
    def nonconstant(period, lo, hi):
        while True:
            u = rng.integers(lo, hi, period)
            if u.min() != u.max():
                return u
    u, v = nonconstant(p, 0, 4), nonconstant(q, 1, 5)
    return [int(u[j % p] + v[j % q]) for j in range(p * q)]


def noisy_deck(path: str) -> list[int]:
    """Write the float 3-deck of a fixed n=64 function, with relative noise
    NOISY_LEVEL symmetrised over the deck's six symmetries, to `path`;
    return the function."""
    rng = np.random.default_rng(NOISY_SEED)
    v = rng.integers(1, 8, NOISY_N)
    N = ref.float_deck3(v)
    E = ref.symmetrise3(rng.standard_normal(N.shape))
    noisy = N + NOISY_LEVEL * float(np.max(np.abs(N))) * E
    with open(path, "w") as fh:
        json.dump({"n": NOISY_N, "k": 3, "convention": "positive-exponent",
                   "values": [float(x) for x in noisy.reshape(-1)]}, fh)
    return [int(x) for x in v]


def reconstruct_ops(seed: int, workdir: str) -> list[dict]:
    rng = np.random.default_rng(seed)
    ops = []
    for n in (32, 64, 128):
        v = [int(x) for x in rng.integers(1, 8, n)]
        ops.append(_op(f"reconstruct_n{n}", ["reconstruct", "--values",
                                             _csv(v)],
                       "rotation", {"values": v}, largest=(n == 128)))
    for p, q in ((3, 5), (5, 7), (7, 11)):
        v = _pq_values(rng, p, q)
        ops.append(_op(f"reconstruct_pq{p * q}",
                       ["reconstruct", "--values", _csv(v)],
                       "pq_family", {"values": v, "p": p, "q": q}))
    path = os.path.join(workdir, f"noisy_deck_n{NOISY_N}.json")
    v = noisy_deck(path)
    ops.append(_op(f"reconstruct_noisy_n{NOISY_N}",
                   ["reconstruct", "--deck", path], "noisy", {"values": v},
                   expect_fail=True))
    return ops


def _rationals(rng, n: int) -> list[str]:
    """p/q with p in 0..7 and q in {1, 2, 3, 4, 6}; the first two are
    1..7 over 4 and over 3, so the common denominator is 12 for every seed
    and the deck's entries are of one size."""
    nums = rng.integers(0, 8, n)
    dens = rng.choice([1, 2, 3, 4, 6], n)
    nums[:2] = rng.integers(1, 8, 2)
    dens[:2] = 4, 3
    return [str(Fraction(int(a), int(b))) for a, b in zip(nums, dens)]


def decks_ops(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    v128 = _rationals(rng, 128)
    v48 = _rationals(rng, 48)
    v20 = _rationals(rng, 20)
    return [
        _op("deck_k3_n128_json", ["deck", "--k", 3, "--values", _csv(v128)],
            "deck_json", {"values": v128, "k": 3}),
        _op("deck_k3_n128_csv", ["deck", "--k", 3, "--format", "csv",
                                 "--values", _csv(v128)],
            "deck_csv", {"values": v128, "k": 3}),
        _op("deck_k4_n48", ["deck", "--k", 4, "--values", _csv(v48)],
            "deck_json", {"values": v48, "k": 4}),
        _op("deck_k5_n20", ["deck", "--k", 5, "--values", _csv(v20)],
            "deck_json", {"values": v20, "k": 5}, largest=True),
        _op("cospair", ["rline", "cospair", "--h", "1/256"], "cospair",
            {"h": "1/256", "samples": 32769}),
    ]


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    if workload == "sweep":
        return sweep_ops()
    if workload == "reconstruct":
        return reconstruct_ops(seed, workdir)
    if workload == "decks":
        return decks_ops(seed)
    raise ValueError(f"unknown workload {workload!r}")
