"""Reference computations that trideck's outputs are checked against.

Nothing here imports trideck.  Every value is computed from its definition,
with numpy integer arithmetic, Python fractions or a float FFT, so that a
fault in the library cannot hide by also being in its checker.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

SURVEY_ZERO = 1e-9  # |fhat(l)| below this is a zero of the spectrum
SURVEY_GAP = 1e-6  # ... and no |fhat(l)| may fall in [SURVEY_ZERO, SURVEY_GAP)
_INT64_SAFE = 2**62


class UndecidedError(Exception):
    """A reference computation could not decide (e.g. the FFT zero band)."""


def necklace_count(n: int) -> int:
    """Binary necklaces of length n (rotation orbits of subsets of Z/nZ),
    by Burnside's lemma: (1/n) * sum_{d | n} phi(d) * 2^(n/d)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            phi = sum(1 for a in range(1, d + 1) if math.gcd(a, d) == 1)
            total += phi * 2 ** (n // d)
    return total // n


def int_deck(v: Sequence[int], k: int) -> np.ndarray:
    """N(j_1..j_{k-1}) = sum_t v_t v_{t+j_1} ... v_{t+j_{k-1}}, indices mod n,
    as a tensor of shape (n,)*(k-1); int64, or Python ints if that could
    overflow."""
    n = len(v)
    mx = max((abs(int(x)) for x in v), default=0)
    dtype = np.int64 if n * max(mx, 1) ** k < _INT64_SAFE else object
    v = np.array([int(x) for x in v], dtype=dtype)
    t = np.arange(n)
    S = v[(t[None, :] + t[:, None]) % n]  # S[j, t] = v[(t + j) % n]
    terms = v
    for _ in range(k - 1):
        terms = terms[..., None, :] * S
    return terms.sum(axis=-1)


def rational_deck(values: Sequence[Fraction], k: int
                  ) -> tuple[np.ndarray, int]:
    """(I, Q) with the exact k-deck equal to I / Q entry by entry."""
    D = math.lcm(*(Fraction(x).denominator for x in values))
    ints = [int(Fraction(x) * D) for x in values]
    return int_deck(ints, k), D**k


def float_deck3(v: Sequence[float]) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    t = np.arange(n)
    S = v[(t[None, :] + t[:, None]) % n]
    return (S * v[None, :]) @ S.T


def symmetrise3(E: np.ndarray) -> np.ndarray:
    """Average of E over the six index maps under which every 3-deck on
    Z/nZ is invariant (permutations of the triple (0, a, b) up to shift)."""
    n = E.shape[0]
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    maps = [(a, b), (b, a), (-a, b - a), (b - a, -a), (-b, a - b), (a - b, -b)]
    return sum(E[x % n, y % n] for x, y in maps) / 6


def rotations(values: Sequence) -> list[tuple]:
    vals = tuple(values)
    return [vals[s:] + vals[:s] for s in range(len(vals))]


def is_rotation(a: Sequence, b: Sequence) -> bool:
    return len(a) == len(b) and tuple(a) in rotations(b)


def rotation_distance(c: Sequence[float], v: Sequence[float]) -> float:
    """min over rotations of ||rot(c) - v||_inf / ||v||_inf."""
    c = np.asarray(c, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    scale = max(float(np.max(np.abs(v))), 1e-300)
    return min(float(np.max(np.abs(np.roll(c, s) - v)))
               for s in range(len(v))) / scale


# ---------------------------------------------------------------------------
# Subsets of Z/nZ as bit masks (bit j set <=> j in the subset).

def canonical_masks(n: int) -> np.ndarray:
    """For each mask in [0, 2^n) the least mask over its n rotations."""
    full = (1 << n) - 1
    m = np.arange(1 << n, dtype=np.int64)
    best = m.copy()
    for _ in range(n - 1):
        m = ((m << 1) | (m >> (n - 1))) & full
        np.minimum(best, m, out=best)
    return best


def canonical_mask(subset: Sequence[int], n: int) -> int:
    best = None
    for s in range(n):
        m = sum(1 << ((j + s) % n) for j in subset)
        best = m if best is None else min(best, m)
    return best


def mask_bits(masks: np.ndarray, n: int) -> np.ndarray:
    return (masks[:, None] >> np.arange(n)[None, :]) & 1


def _batch_decks(bits: np.ndarray, k: int) -> np.ndarray:
    """k-decks of many 0/1 vectors at once: out[r] = int_deck(bits[r], k)."""
    n = bits.shape[1]
    t = np.arange(n)
    S = bits[:, (t[None, :] + t[:, None]) % n]  # S[r, j, t]
    terms = bits
    for axis in range(k - 1):
        shape = (S.shape[0],) + (1,) * axis + S.shape[1:]
        terms = terms[..., None, :] * S.reshape(shape)
    return terms.sum(axis=-1)


def sweep_reference(n: int, k: int) -> tuple[int, int, set[frozenset[int]]]:
    """(orbits, distinct decks, ambiguous classes) of all subsets of Z/nZ
    under the k-deck.  A class is the frozenset of the canonical masks of
    two or more rotation orbits that share one k-deck."""
    reps = np.unique(canonical_masks(n))
    groups: dict[bytes, list[int]] = {}
    for start in range(0, len(reps), 2048):
        chunk = reps[start:start + 2048]
        decks = _batch_decks(mask_bits(chunk, n).astype(np.int64), k)
        for mask, deck in zip(chunk.tolist(), decks):
            groups.setdefault(deck.tobytes(), []).append(mask)
    classes = {frozenset(ms) for ms in groups.values() if len(ms) >= 2}
    return len(reps), len(groups), classes


def survey_hits(n: int) -> int:
    """Subsets of Z/nZ whose indicator spectrum vanishes at some l != 0,
    counted with a float FFT.  Raises if any |fhat(l)| falls in the band
    [SURVEY_ZERO, SURVEY_GAP), where a float cannot tell zero from not."""
    hits = 0
    total = 1 << n
    for start in range(0, total, 1 << 14):
        masks = np.arange(start, min(start + (1 << 14), total),
                          dtype=np.int64)
        mags = np.abs(np.fft.fft(mask_bits(masks, n).astype(np.float64),
                                 axis=1))[:, 1:]
        if np.any((mags >= SURVEY_ZERO) & (mags < SURVEY_GAP)):
            raise UndecidedError(
                f"n={n}: a spectrum value lies in the undecidable band")
        hits += int(np.count_nonzero(np.any(mags < SURVEY_ZERO, axis=1)))
    return hits


def parse_rational(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"{x!r} is not an exact rational entry")
    return Fraction(x)
