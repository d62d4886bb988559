"""Exhaustive and statistical determinacy experiments on Z/nZ.

Covers three kinds of evidence: exhaustive k-deck sweeps over all 0/1
subsets (quotiented by translation and grouped by their exact integer
decks), the Grunbaum-Moore style pair of non-translate sets with equal
3-decks, and a survey of how often indicator spectra vanish somewhere.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from .config import compute_budget
from .cyclic import (CyclicFunction, deck_equal, equal_up_to_translation,
                     k_deck)
from .cyclotomic import _factorize, cyclotomic, poly_divmod
from .errors import BudgetError, DomainError, TrideckError

_WILSON_Z = 1.959963984540054  # two-sided 95%
_CHUNK = 1 << 20  # masks canonicalized at once, which bounds the memory
_HASH_CHUNK = 1 << 16  # representatives whose n rotations are held at once
_SURVEY_CHUNK = 1 << 12  # representatives tested for spectral zeros at once
_FIRST_STAGE = 3  # the sweep keys first on offset tuples with a_1 < 3
_HASH_P = np.uint64(0x9E3779B97F4A7C15)  # odd, so h -> h * P is a bijection


def _necklaces(n: int) -> int:
    """Rotation orbits of the subsets of Z/nZ, by Burnside's lemma."""
    return sum(1 << math.gcd(r, n) for r in range(n)) // n


def _multisets(m: int, s: int) -> int:
    """Non-decreasing s-tuples over range(m), for s >= 1."""
    return math.comb(m + s - 1, s) if m > 0 else 0


def _rotate(masks: np.ndarray, n: int, a: int) -> np.ndarray:
    """Bit j of each result is bit j + a (mod n) of the mask, for 0 < a < n."""
    t = masks.dtype.type
    return ((masks >> t(a)) | (masks << t(n - a))) & t((1 << n) - 1)


def _least_in_orbit(masks: np.ndarray, n: int) -> np.ndarray:
    """The masks (bit j set when j is in the set) that are the least of
    their n rotations, in their given order.  A mask is dropped at its
    first smaller rotation, so the array shrinks as it goes."""
    for a in range(1, n):
        masks = masks[masks <= _rotate(masks, n, a)]
    return masks


def _orbit_reps(n: int) -> np.ndarray:
    """The least mask of every rotation orbit of subsets of Z/nZ, sorted.

    Apart from 0 and the full set 2^n - 1, only odd masks below 2^(n-1)
    are candidates, a quarter of all masks.  Let m be the least mask of
    its orbit, neither 0 nor full.  Bit 0 of m is set: otherwise rotating
    m's lowest set bit down to bit 0 gives a smaller mask.  Bit n-1 of m
    is clear: otherwise rotating a clear bit of m up to bit n-1 gives a
    mask below 2^(n-1) <= m."""
    dtype = np.uint32 if n <= 32 else np.uint64
    half = 1 << (n - 1)
    odd = [_least_in_orbit(np.arange(start, min(start + 2 * _CHUNK, half), 2,
                                     dtype=dtype), n)
           for start in range(1, half, 2 * _CHUNK)]
    return np.concatenate([np.zeros(1, dtype), *odd,
                           np.full(1, (1 << n) - 1, dtype)])


def _deck_columns(reps: np.ndarray, n: int,
                  offsets: list[tuple[int, ...]]):
    """Deck entries of 0/1 sets, one uint8 array per offset tuple in turn:
    N(a_1, ..., a_{k-1}) of a set A is |A & (A - a_1) & ...|, the popcount
    of its mask ANDed with the mask's rotations by each a_i.  Entries lie
    in [0, n], so uint8 holds them exactly."""
    rot = [reps] + [_rotate(reps, n, a) for a in range(1, n)]
    for offset in offsets:
        acc = reps
        for a in offset:
            acc = acc & rot[a]
        yield np.bitwise_count(acc)


def _stage1_hash(reps: np.ndarray, n: int,
                 offsets: list[tuple[int, ...]]) -> np.ndarray:
    """A 64-bit rolling hash of each mask's deck entries at `offsets`,
    h <- h * P + entry mod 2^64, over chunks of masks so that only one
    chunk's n rotations are held.  Equal entries give equal hashes."""
    h = np.zeros(len(reps), dtype=np.uint64)
    for start in range(0, len(reps), _HASH_CHUNK):
        part = h[start:start + _HASH_CHUNK]
        for col in _deck_columns(reps[start:start + _HASH_CHUNK], n, offsets):
            part *= _HASH_P
            part += col
    return h


def _colliding(h: np.ndarray) -> np.ndarray:
    """Positions, ascending, of the entries of h whose value occurs more
    than once."""
    order = np.argsort(h)
    h = h[order]
    tie = np.zeros(len(h) + 1, dtype=bool)  # tie[i]: h[i] equals h[i - 1]
    tie[1:-1] = h[1:] == h[:-1]
    return np.sort(order[tie[1:] | tie[:-1]])


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group id of each row and the size of each group; rows are equal
    exactly when their bytes are."""
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, group, sizes = np.unique(keys, return_inverse=True,
                                return_counts=True)
    return group, sizes


@dataclasses.dataclass(frozen=True)
class DeterminacyReport:
    n: int
    k: int
    total_sets: int
    ambiguous_classes: tuple[tuple[tuple[int, ...], ...], ...]
    runtime_stats: dict

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "k": self.k, "total_sets": self.total_sets,
            "ambiguous_classes": [[list(s) for s in cls]
                                  for cls in self.ambiguous_classes],
            "runtime_stats": self.runtime_stats,
        }


def exhaustive_determinacy(n: int, k: int,
                           budget: Optional[int] = None) -> DeterminacyReport:
    """Group all 2^n subsets by exact k-deck, quotient by rotation, report
    every deck class containing two or more rotation orbits.

    Subsets are bitmasks (uint32 up to n = 32, uint64 up to n = 64), and a
    0/1 set's deck entries are popcounts.  A k-deck is symmetric in its
    arguments, so its entries at 0 <= a_1 <= ... <= a_{k-1} < n decide it.
    Only the least mask of each rotation orbit is decked (see _orbit_reps).

    Stage 1 folds each mask's entries with a_1 <= 2, which see more than
    the 2-deck (a set and its mirror image share the 2-deck), into a
    64-bit rolling hash; no stage-1 matrix is stored.  Stage 2 builds the
    full exact rows of the masks whose hash is shared and groups them on
    exact bytes.  Equal decks have equal hashes, so every class of two or
    more orbits reaches stage 2; a false hash collision only sends extra
    masks there.  No hash value decides an answer.

    The budget is charged before any work starts, with the kernel's own
    operation count: 2^n * n for the rotation pass, plus necklaces(n) times
    the number of first-stage offset tuples.  The second stage, over the
    colliding masks only, is not charged.
    """
    if n < 1 or k < 2:
        raise DomainError(f"need n >= 1 and k >= 2, got n={n}, k={k}")
    if n > 64:
        raise DomainError(f"n = {n} > 64: subsets are at most 64-bit masks")
    first = _multisets(n, k - 1) - _multisets(n - _FIRST_STAGE, k - 1)
    cost = (1 << n) * n + _necklaces(n) * first
    if cost > compute_budget(budget):
        raise BudgetError(f"a sweep at n={n}, k={k} needs {cost} operations, "
                          "over the compute budget")

    reps = _orbit_reps(n)
    offsets = list(itertools.combinations_with_replacement(range(n), k - 1))
    colliding = reps[_colliding(
        _stage1_hash(reps, n, [a for a in offsets if a[0] < _FIRST_STAGE]))]
    group, sizes = _group_rows(
        np.stack(list(_deck_columns(colliding, n, offsets)), axis=1))
    classes: dict[int, list[int]] = {}
    for g, mask in zip(group.tolist(), colliding.tolist()):
        classes.setdefault(g, []).append(mask)
    ambiguous = sorted(
        tuple(sorted(tuple(j for j in range(n) if m >> j & 1) for m in c))
        for c in classes.values() if len(c) >= 2)
    stats = {"orbit_reps": len(reps),
             "deck_classes": len(reps) - len(colliding) + len(sizes)}
    return DeterminacyReport(n, k, 1 << n, tuple(ambiguous), stats)


@dataclasses.dataclass(frozen=True)
class CounterexamplePair:
    n: int
    E: frozenset[int]
    F: frozenset[int]
    provenance: dict

    def to_json_dict(self) -> dict:
        return {"n": self.n, "E": sorted(self.E), "F": sorted(self.F),
                "provenance": self.provenance}


def gm_counterexample(p: int, q: int, r: int) -> CounterexamplePair:
    """A pair of subsets of Z/pqrZ with exactly equal 3-decks that are not
    translates of one another (their 4-decks differ).

    Construction: an antipodal set E (one of x, x+n/2 per pair, so that
    E + n/2 is the complement of E) paired with its reflection -E.  The
    spectrum of an antipodal indicator lives on {0} and the odd
    frequencies; three odd indices cannot sum to 0 mod the even n, so every
    nonvanishing bispectrum entry is a real magnitude product, which makes
    the 3-deck reflection-invariant.  The smallest asymmetric choice (in a
    fixed enumeration order) whose 4-decks differ is returned, and all
    claimed properties are re-verified exactly; failure aborts.
    """
    if p == q or any(_factorize(m) != {m: 1} for m in (p, q)):
        raise DomainError(f"p={p}, q={q} must be distinct primes")
    if r < 3:
        raise DomainError(f"r must be >= 3, got {r}")
    n = p * q * r
    if n % 2:
        raise DomainError(
            f"n = {n} is odd; the antipodal construction needs an even "
            "modulus (one of p, q, r must be even)")
    m = n // 2
    for mask in range(1 << (m - 1)):
        E = frozenset({0} | {x + m * (mask >> (x - 1) & 1)
                             for x in range(1, m)})
        F = frozenset((-e) % n for e in E)
        fE = CyclicFunction.indicator(n, E)
        fF = CyclicFunction.indicator(n, F)
        if equal_up_to_translation(fE, fF) is not None:
            continue
        if not deck_equal(k_deck(fE, 3), k_deck(fF, 3)):
            raise TrideckError("antipodal pair decks differ; bug")
        if deck_equal(k_deck(fE, 4), k_deck(fF, 4)):
            continue  # want a finite witness of the non-translate status
        return CounterexamplePair(n, E, F, {"p": p, "q": q, "r": r,
                                            "construction": "antipodal",
                                            "mask": mask})
    raise TrideckError("no asymmetric antipodal set found; bug")


# ---------------------------------------------------------------------------
# Zero-proportion survey.

@dataclasses.dataclass(frozen=True)
class SurveyResult:
    n: int
    mode: str  # exhaustive | sampled
    samples: int
    hits: int
    proportion: float
    exact: Optional[Fraction]
    ci_low: float
    ci_high: float
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {"n": self.n, "mode": self.mode, "samples": self.samples,
                "hits": self.hits, "proportion": self.proportion,
                "exact": None if self.exact is None else str(self.exact),
                "ci": [self.ci_low, self.ci_high], "seed": self.seed}


def _wilson(hits: int, m: int) -> tuple[float, float]:
    z = _WILSON_Z
    phat = hits / m
    denom = 1 + z * z / m
    center = (phat + z * z / (2 * m)) / denom
    half = z * math.sqrt(phat * (1 - phat) / m + z * z / (4 * m * m)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def _residue_matrices(n: int) -> list[np.ndarray]:
    """For each divisor d > 1 of n: the matrix of x^j mod Phi_d, so that
    bits @ M == 0 exactly when Phi_d | P_E."""
    mats = []
    for d in range(2, n + 1):
        if n % d:
            continue
        phi = cyclotomic(d)
        M = np.zeros((n, len(phi) - 1), dtype=np.int64)
        row: tuple[int, ...] = (1,)
        for j in range(n):
            M[j, :len(row)] = row
            row = poly_divmod((0,) + row, phi)[1]  # x * row mod Phi_d
        mats.append(M)
    return mats


def _chunk_hits(bits: np.ndarray, mats: list[np.ndarray]) -> np.ndarray:
    has_zero = np.zeros(bits.shape[0], dtype=bool)
    for M in mats:
        res = bits @ M
        has_zero |= np.all(res == 0, axis=1)
    return has_zero


def survey_zero_proportion(n: int, samples: Optional[int] = None,
                           seed: int = 0,
                           mode: str = "auto") -> SurveyResult:
    """Proportion of subsets of Z/nZ whose indicator spectrum vanishes at
    some l != 0.  Exhaustive when 2^n <= 2^20, otherwise seeded sampling
    with a counter-based generator and a 95% Wilson interval.

    The exhaustive count tests one representative per rotation orbit and
    weights it by the orbit size, its least period a | n.  That is exact:
    rotating a set by s multiplies chi_E_hat(l) by the unit zeta^(ls), so
    every set of an orbit vanishes at the same l."""
    if n < 1:
        raise DomainError(f"modulus must be >= 1, got {n}")
    if mode not in ("auto", "exhaustive", "sampled"):
        raise DomainError(f"unknown survey mode {mode!r}")
    mats = _residue_matrices(n)
    exhaustive = (mode == "exhaustive") or (mode == "auto" and 2**n <= 2**20)
    if exhaustive:
        if 2**n > 2**20:
            raise BudgetError(f"2^{n} subsets exceed the exhaustive limit")
        reps = _orbit_reps(n)
        size = np.full(len(reps), n, dtype=np.int64)
        for a in range(n - 1, 0, -1):  # the least period is set last
            if n % a == 0:
                size[_rotate(reps, n, a) == reps] = a
        shifts = np.arange(n, dtype=reps.dtype)
        hits = 0
        for start in range(0, len(reps), _SURVEY_CHUNK):
            part = reps[start:start + _SURVEY_CHUNK]
            bits = ((part[:, None] >> shifts) & 1).astype(np.int64)
            hits += int(size[start:start + _SURVEY_CHUNK]
                        [_chunk_hits(bits, mats)].sum())
        total = int(size.sum())
        lo, hi = hits / total, hits / total
        return SurveyResult(n, "exhaustive", total, hits, hits / total,
                            Fraction(hits, total), lo, hi)
    if samples is None or samples < 1:
        raise DomainError("sampled mode needs samples >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    done = 0
    while done < samples:
        m = min(samples - done, 1 << 14)
        bits = rng.integers(0, 2, size=(m, n), dtype=np.int64)
        hits += int(np.sum(_chunk_hits(bits, mats)))
        done += m
    lo, hi = _wilson(hits, samples)
    return SurveyResult(n, "sampled", samples, hits, hits / samples,
                        None, lo, hi, seed)


# ---------------------------------------------------------------------------
# All-k uniqueness probe.

@dataclasses.dataclass(frozen=True)
class AllKVerdict:
    n: int
    k_max: int
    first_differing_k: Optional[int]
    translate_shift: Optional[int]

    @property
    def decks_all_equal(self) -> bool:
        return self.first_differing_k is None

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k_max": self.k_max,
                "first_differing_k": self.first_differing_k,
                "translate_shift": self.translate_shift,
                "decks_all_equal": self.decks_all_equal}


def verify_all_k_uniqueness(f: CyclicFunction, g: CyclicFunction,
                            k_max: int,
                            budget: Optional[int] = None) -> AllKVerdict:
    """Smallest k in [2, k_max] at which the k-decks of f and g differ, or
    None if all agree; plus translate status.  A differing k is a finite
    witness that f, g are not translates."""
    if f.n != g.n:
        raise DomainError(f"moduli differ: {f.n} != {g.n}")
    if k_max < 2:
        raise DomainError(f"k_max must be >= 2, got {k_max}")
    first = None
    for k in range(2, k_max + 1):
        if not deck_equal(k_deck(f, k, budget), k_deck(g, k, budget)):
            first = k
            break
    return AllKVerdict(f.n, k_max, first, equal_up_to_translation(f, g))
