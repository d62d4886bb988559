"""Exhaustive and statistical determinacy experiments on Z/nZ.

Covers three kinds of evidence: exhaustive k-deck sweeps over all 0/1
subsets (quotiented by translation and grouped by their exact integer
decks), the Grunbaum-Moore style pair of non-translate sets with equal
3-decks, and a survey of how often indicator spectra vanish somewhere.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .config import compute_budget
from .cyclic import (CyclicFunction, deck_equal, equal_up_to_translation,
                     k_deck)
from .cyclotomic import _two_primes, cyclotomic
from .errors import BudgetError, DomainError, TrideckError

_WILSON_Z = 1.959963984540054  # two-sided 95%
# Chunk sizes keep each temporary of a pass in L2 and under glibc's 128 KiB
# mmap threshold, so the heap hands the same blocks to the next chunk and
# no page faults in again.  Picked by timing 2^12..2^16 candidates and
# 2^7..2^12 sets at n = 18..24.
_CHUNK = 1 << 14  # candidate masks canonicalized at once
_HASH_CHUNK = 1 << 16  # representatives whose n rotations are held at once
_SURVEY_CHUNK = 1 << 9  # sets tested for spectral zeros at once
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


def _least_in_orbit(masks: np.ndarray, n: int,
                    shifts: Iterable[int]) -> np.ndarray:
    """The masks (bit j set when j is in the set) that are the least of
    their n rotations, in their given order, comparing each with its
    rotations by `shifts`.  A mask is dropped at its first smaller
    rotation, so the array shrinks as it goes."""
    for a in shifts:
        masks = masks[masks <= _rotate(masks, n, a)]
    return masks


def _orbit_reps(n: int) -> np.ndarray:
    """The least mask of every rotation orbit of subsets of Z/nZ, sorted.

    Apart from 0 and the full set 2^n - 1, only odd masks below 2^(n-1)
    are candidates, a quarter of all masks.  Let m be the least mask of
    its orbit, neither 0 nor full.  Bit 0 of m is set: otherwise rotating
    m's lowest set bit down to bit 0 gives a smaller mask.  Bit n-1 of m
    is clear: otherwise rotating a clear bit of m up to bit n-1 gives a
    mask below 2^(n-1) <= m.

    Such a candidate is never above its rotations by 1 and by n - 1, so
    only the shifts 2..n-2 are compared: the rotation by 1 moves bit 0 up
    to bit n-1, giving a mask of at least 2^(n-1), and the rotation by
    n - 1 is the doubled mask, since bit n-1 is clear.  The shifts nearest
    n/2 go first, as they drop the most candidates (at n = 18 a shift by
    7..11 keeps about 75%, a shift by 2 keeps 83%)."""
    dtype = np.uint32 if n <= 32 else np.uint64
    half = 1 << (n - 1)
    shifts = sorted(range(2, n - 1), key=lambda a: abs(2 * a - n))
    odd = [_least_in_orbit(np.arange(start, min(start + 2 * _CHUNK, half), 2,
                                     dtype=dtype), n, shifts)
           for start in range(1, half, 2 * _CHUNK)]
    return np.concatenate([np.zeros(1, dtype), *odd,
                           np.full(1, (1 << n) - 1, dtype)])


def _rotations(masks: np.ndarray, n: int) -> list[np.ndarray]:
    """rot[a] is the masks rotated by a, for a in range(n); rot[0] is
    masks itself."""
    return [masks] + [_rotate(masks, n, a) for a in range(1, n)]


def _prefix_ands(rot: list[np.ndarray], depth: int, first: int,
                 lo: int = 0, acc: Optional[np.ndarray] = None):
    """For each offset prefix lo <= a_1 <= ... <= a_depth < n = len(rot)
    with a_1 < first, in lexicographic order: a_depth (lo for the empty
    prefix) and the prefix's AND, rot[0] & rot[a_1] & ... & rot[a_depth],
    each one AND on its parent's.

    The deck entry N(a_1, ..., a_{k-1}) of a set A is |A & (A - a_1) &
    ...|, so popcount(acc & rot[a]) for a >= a_depth is the entry at the
    prefix followed by a, with k - 1 = depth + 1.  Entries lie in [0, n],
    so uint8 holds them exactly."""
    acc = rot[0] if acc is None else acc
    if depth == 0:
        yield lo, acc
        return
    for a in range(lo, first):
        yield from _prefix_ands(rot, depth - 1, len(rot), a, acc & rot[a])


def _stage1_hash(reps: np.ndarray, n: int, k: int) -> np.ndarray:
    """A 64-bit rolling hash of each mask's k-deck entries at the offset
    tuples with a_1 < _FIRST_STAGE, in lexicographic order, h <- h * P +
    entry mod 2^64, over chunks of masks so that only one chunk's n
    rotations are held.  Equal entries give equal hashes."""
    h = np.zeros(len(reps), dtype=np.uint64)
    first = min(n, _FIRST_STAGE)
    stop = n if k > 2 else first
    for start in range(0, len(reps), _HASH_CHUNK):
        part = h[start:start + _HASH_CHUNK]
        rot = _rotations(reps[start:start + _HASH_CHUNK], n)
        for lo, acc in _prefix_ands(rot, k - 2, first):
            for a in range(lo, stop):
                part *= _HASH_P
                part += np.bitwise_count(acc & rot[a])
        del rot  # before the next chunk's rotations are made
    return h


def _deck_rows(masks: np.ndarray, n: int, k: int) -> np.ndarray:
    """Each mask's full k-deck entries at 0 <= a_1 <= ... <= a_{k-1} < n,
    in lexicographic order, one uint8 row per mask."""
    rot = _rotations(masks, n)
    R = np.stack(rot, axis=1)  # R[i, a]: mask i rotated by a
    return np.concatenate(
        [np.bitwise_count(acc[:, None] & R[:, lo:])
         for lo, acc in _prefix_ands(rot, k - 2, n)], axis=1)


def _colliding(h: np.ndarray) -> np.ndarray:
    """Positions, ascending, of the entries of h whose value occurs more
    than once."""
    order = np.argsort(h)
    h = h[order]
    tie = np.zeros(len(h) + 1, dtype=bool)  # tie[i]: h[i] equals h[i - 1]
    tie[1:-1] = h[1:] == h[:-1]
    return np.sort(order[tie[1:] | tie[:-1]])


def _group_rows(rows: np.ndarray) -> np.ndarray:
    """Group id of each row; rows are equal exactly when their bytes are."""
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    return np.unique(keys, return_inverse=True)[1]


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
    masks there.  No hash value decides an answer.  When no hash is
    shared, every orbit is its own class and stage 2 does not run.

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
    colliding = reps[_colliding(_stage1_hash(reps, n, k))]
    classes: dict[int, list[int]] = {}
    if len(colliding):  # otherwise every deck class is a single orbit
        group = _group_rows(_deck_rows(colliding, n, k))
        for g, mask in zip(group.tolist(), colliding.tolist()):
            classes.setdefault(g, []).append(mask)
    ambiguous = sorted(
        tuple(sorted(tuple(j for j in range(n) if m >> j & 1) for m in c))
        for c in classes.values() if len(c) >= 2)
    stats = {"orbit_reps": len(reps),
             "deck_classes": len(reps) - len(colliding) + len(classes)}
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
    claimed properties are re-verified exactly; failure aborts.  The n^4
    entries of a 4-deck are charged to the compute budget before any set is
    built, and before p*q is factored, which bounds that too.
    """
    n = p * q * r
    if n**4 > compute_budget():
        raise BudgetError(f"the 4-decks at n={n} have {n}^4 entries, "
                          "over the compute budget")
    if _two_primes(p * q) != tuple(sorted((p, q))):
        raise DomainError(f"p={p}, q={q} must be distinct primes")
    if r < 3:
        raise DomainError(f"r must be >= 3, got {r}")
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


def _residue_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """M, the columns of x^j mod Phi_d for every divisor d > 1 of n side by
    side (phi(d) of them each, n - 1 in all), and the 0/1 float64 matrix
    `block` whose column for d sums d's columns.  Row i of bits @ M holds
    the remainders mod each Phi_d of the polynomial sum_j bits[i, j] x^j,
    so Phi_d divides it exactly when d's columns of that row are all zero.
    Each divisor's rows are x^j for j < phi(d), then x * row mod Phi_d in
    turn, and repeat with period d, since x^d = 1 mod Phi_d.

    M is float64 when n * max|M| < 2^53, and bits @ M is still exact:
    bits are 0 or 1, so every product is 0 or an entry of M, and every
    partial sum, in whatever order BLAS adds, is an integer of magnitude
    at most n * max|M|.  float64 holds every such integer exactly, so no
    step rounds.  Otherwise M stays int64."""
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    M = np.zeros((n, n - 1), dtype=np.int64)  # phi(1) + those phi(d) = n
    block = np.zeros((n - 1, len(divisors)))
    start = 0
    for i, d in enumerate(divisors):
        phi = cyclotomic(d)
        deg = len(phi) - 1
        rows = np.eye(d, deg, dtype=np.int64)
        row = rows[deg - 1].tolist()
        for j in range(deg, d):
            c = row[-1]  # c * x^deg = -c * (phi - x^deg) mod Phi_d
            row = [a - c * b for a, b in zip([0] + row[:-1], phi)]
            rows[j] = row
        M[:, start:start + deg] = rows[np.arange(n) % d]
        block[start:start + deg, i] = 1
        start += deg
    if n * int(np.abs(M).max(initial=0)) < 2**53:
        M = M.astype(np.float64)
    return M, block


def _has_zero(bits: np.ndarray, M: np.ndarray,
              block: np.ndarray) -> np.ndarray:
    """Whether each row of 0/1 bits has a spectral zero: whether, for some
    divisor, |bits @ M| summed over that divisor's columns is 0.  A sum of
    nonnegative numbers is 0 only when each is, in float64 too, so this is
    ((bits @ M != 0) @ block == 0).any(axis=1) without the bool copy.

    The products are taken transposed, one column per set, so that abs and
    any run along the long axis; they stay exact by _residue_matrix's
    argument, which holds for products and sums in any order."""
    res = M.T @ bits.T
    np.abs(res, out=res)
    return (block.T @ res == 0).any(axis=0)


def survey_zero_proportion(n: int, samples: Optional[int] = None,
                           seed: int = 0,
                           mode: str = "auto") -> SurveyResult:
    """Proportion of subsets of Z/nZ whose indicator spectrum vanishes at
    some l != 0.  Exhaustive when 2^n <= 2^20, otherwise seeded sampling
    with a counter-based generator and a 95% Wilson interval.

    The exhaustive count tests one representative per rotation orbit and
    weights it by the orbit size, its least period a | n.  That is exact:
    rotating a set by s multiplies chi_E_hat(l) by the unit zeta^(ls), so
    every set of an orbit vanishes at the same l.  The n*(n-1) entries of
    the residue matrix are charged to the compute budget before it is
    built."""
    if n < 1:
        raise DomainError(f"modulus must be >= 1, got {n}")
    if mode not in ("auto", "exhaustive", "sampled"):
        raise DomainError(f"unknown survey mode {mode!r}")
    exhaustive = (mode == "exhaustive") or (mode == "auto" and 2**n <= 2**20)
    if exhaustive and 2**n > 2**20:
        raise BudgetError(f"2^{n} subsets exceed the exhaustive limit")
    if not exhaustive and (samples is None or samples < 1):
        raise DomainError("sampled mode needs samples >= 1")
    if n * (n - 1) > compute_budget():
        raise BudgetError(f"the residue matrix at n={n} has {n * (n - 1)} "
                          "entries, over the compute budget")
    M, block = _residue_matrix(n)
    if exhaustive:
        reps = _orbit_reps(n)
        size = np.full(len(reps), n, dtype=np.int64)
        for a in range(n - 1, 0, -1):  # the least period is set last
            if n % a == 0:
                size[_rotate(reps, n, a) == reps] = a
        # bit j of a mask is bit j % 8 of its byte j // 8, little-endian
        raw = reps.astype(reps.dtype.newbyteorder("<"), copy=False)
        raw = raw.view(np.uint8).reshape(len(reps), -1)
        zero = np.empty(len(reps), dtype=bool)
        for start in range(0, len(reps), _SURVEY_CHUNK):
            bits = np.unpackbits(raw[start:start + _SURVEY_CHUNK], axis=1,
                                 count=n, bitorder="little")
            zero[start:start + _SURVEY_CHUNK] = _has_zero(bits, M, block)
        hits = int(size[zero].sum())
        total = int(size.sum())
        lo, hi = hits / total, hits / total
        return SurveyResult(n, "exhaustive", total, hits, hits / total,
                            Fraction(hits, total), lo, hi)
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    done = 0
    while done < samples:
        m = min(samples - done, 1 << 14)
        bits = rng.integers(0, 2, size=(m, n), dtype=np.int64)
        for start in range(0, m, _SURVEY_CHUNK):
            hits += int(np.count_nonzero(
                _has_zero(bits[start:start + _SURVEY_CHUNK], M, block)))
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
