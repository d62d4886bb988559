"""Exact zeros of indicator spectra via cyclotomic divisibility.

chi_E_hat(l) = P_E(zeta^l) with P_E(x) = sum_{j in E} x^j, so the spectrum
vanishes at l != 0 exactly when Phi_{n/gcd(n,l)} divides P_E over Z.  Zero
detection is always done this way, never by floating thresholds: a false
zero/nonzero would flip the structural classification downstream.  The
module also parses rationals, clears denominators, tests n = pq and finds
the least rotation of a sequence.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DomainError, TrideckError

CYCLOTOMIC_CACHE_BOUND = 10**4

_cache: dict[int, tuple[int, ...]] = {}


# ---------------------------------------------------------------------------
# Rationals, integers and rotations.

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    if isinstance(x, (int, numbers.Integral)):  # int skips the ABC's check
        return Fraction(int(x))
    raise DomainError(f"cannot interpret {x!r} as a rational value")


def _cleared(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times their least common denominator, and that denom."""
    denom = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d, m = 2, n
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _two_primes(n: int) -> Optional[tuple[int, int]]:
    """(p, q) with p < q distinct primes and n = p*q, else None."""
    fact = _factorize(n)
    if len(fact) == 2 and all(a == 1 for a in fact.values()):
        return tuple(sorted(fact))
    return None


def _least_rotation(values: Sequence) -> tuple[int, int]:
    """(s, d): s the least start of the lexicographically least rotation of
    values, and d the least period of values (len(values) if none is less).

    Minimum-expression search: two candidate starts are compared until one
    loses, and a loss after m equal values rules out m + 1 starts, so the
    search takes O(n) comparisons.  If it ends with both candidates equal,
    they are the two least starts of the least rotation, a period apart."""
    n, v = len(values), tuple(values) * 2  # v[i + m], i, m < n: no modulus
    i, j, m = 0, 1, 0
    while i < n and j < n and m < n:
        x, y = v[i + m], v[j + m]
        if x == y:
            m += 1
            continue
        if x > y:
            i += m + 1
        else:
            j += m + 1
        if i == j:
            j += 1
        m = 0
    return min(i, j), abs(i - j) if m == n else n


# ---------------------------------------------------------------------------
# Integer polynomials as coefficient tuples, lowest degree first.

def poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    end = len(c)
    while end > 0 and c[end - 1] == 0:
        end -= 1
    return tuple(c[:end])


def poly_divmod(a: Sequence[int], b: Sequence[int]
                ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Division over Q kept integral; requires b monic or +-1 leading."""
    b = poly_trim(b)
    if not b:
        raise DomainError("division by the zero polynomial")
    lead = b[-1]
    if lead not in (1, -1):
        raise DomainError("divisor must have leading coefficient +-1")
    rem = list(poly_trim(a))
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b) and rem:
        coef = rem[-1] * lead
        deg = len(rem) - len(b)
        quot[deg] = coef
        for j, bj in enumerate(b):
            rem[deg + j] -= coef * bj
        rem = list(poly_trim(rem))
    return poly_trim(quot), poly_trim(rem)


def poly_divides(d: Sequence[int], a: Sequence[int]) -> bool:
    a = poly_trim(a)
    if not a:
        return True
    _, rem = poly_divmod(a, d)
    return not rem


def cyclotomic(m: int) -> tuple[int, ...]:
    """m-th cyclotomic polynomial, by exact division of x^m - 1 by the
    Phi_d of proper divisors d.  Cached up to CYCLOTOMIC_CACHE_BOUND."""
    if m < 1:
        raise DomainError(f"cyclotomic order must be >= 1, got {m}")
    cached = _cache.get(m)
    if cached is not None:
        return cached
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    poly = poly_trim(num)
    for d in range(1, m):
        if m % d == 0:
            poly, rem = poly_divmod(poly, cyclotomic(d))
            if rem:
                raise TrideckError(f"inexact cyclotomic division at m={m}")
    if m <= CYCLOTOMIC_CACHE_BOUND:
        _cache[m] = poly
    return poly


# ---------------------------------------------------------------------------
# Spectral zeros.

def _subset_poly(n: int, E: Iterable[int]) -> tuple[int, ...]:
    if n < 1:
        raise DomainError(f"modulus must be >= 1, got {n}")
    coeffs = [0] * n
    for j in E:
        coeffs[j % n] += 1
    return poly_trim(coeffs)


def function_poly(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Integer polynomial sharing the spectral zeros of a rational function."""
    return poly_trim(_cleared(values)[0])


@dataclasses.dataclass(frozen=True)
class ZeroPattern:
    n: int
    zeros: frozenset[int]
    support: frozenset[int]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "zeros": sorted(self.zeros),
                "support": sorted(self.support)}


def zero_set(n: int, E: Iterable[int]) -> ZeroPattern:
    return zero_pattern_of_poly(n, _subset_poly(n, E))


def zero_pattern_of_poly(n: int, coeffs: Sequence[int]) -> ZeroPattern:
    # Divisibility by Phi_d settles a whole Galois class of l at once.
    zeros: set[int] = set()
    if sum(coeffs) == 0:
        zeros.add(0)
    for d in sorted({n // math.gcd(n, l) for l in range(1, n)}):
        if poly_divides(cyclotomic(d), coeffs):
            zeros.update(l for l in range(1, n) if n // math.gcd(n, l) == d)
    return ZeroPattern(n, frozenset(zeros),
                       frozenset(range(n)) - frozenset(zeros))


def spectrum_zero_exact(n: int, E: Iterable[int], l: int) -> bool:
    """True iff chi_E_hat(l) = 0, decided in integer arithmetic."""
    zeros = zero_set(n, E).zeros
    return l % n in zeros


def periodicity(n: int, E: Iterable[int]) -> int:
    """Least d | n with E + d = E."""
    members = {j % n for j in E}
    return _least_rotation([j in members for j in range(n)])[1]


# ---------------------------------------------------------------------------
# Structural classification for n = p^a and n = pq.

@dataclasses.dataclass(frozen=True)
class StructureCase:
    tag: str  # NoZeros | FullSetOnly | PeriodicSubcase | PrimePowerGapCase
    #           | TwoPrimeMixedCase | TwoPrimePeriodic | Unclassified
    period: Optional[int] = None
    gap_exponent: Optional[int] = None  # the b of the p^a gap case
    zeros: tuple[int, ...] = ()
    support: tuple[int, ...] = ()

    def to_json_dict(self) -> dict:
        return {"case": self.tag, "period": self.period,
                "gap_exponent": self.gap_exponent,
                "zeros": list(self.zeros), "support": list(self.support)}


class ClassificationError(TrideckError):
    """Pattern matches none of the exhaustive case lists (upstream bug)."""


def classify_zero_pattern(n: int, pattern: ZeroPattern) -> StructureCase:
    if pattern.n != n:
        raise DomainError("pattern modulus mismatch")
    zeros = pattern.zeros
    support = pattern.support
    base = dict(zeros=tuple(sorted(zeros)), support=tuple(sorted(support)))

    if not support:  # empty set: spectrum identically zero
        return StructureCase("FullSetOnly", **base)
    if not (zeros - {0}):
        return StructureCase("NoZeros", **base)
    if zeros >= frozenset(range(1, n)):
        return StructureCase("FullSetOnly", **base)

    fact = _factorize(n)
    nz_support = support - {0}
    if len(fact) == 1:
        (p, a), = fact.items()
        # spectrum supported on a proper subgroup gZ -> (n/g)-periodic set
        g = math.gcd(n, math.gcd(*nz_support)) if nz_support else n
        if g > 1:
            return StructureCase("PeriodicSubcase", period=n // g, **base)
        # otherwise the zeros sit at multiples of p^(a-b) with b minimal
        g = math.gcd(n, math.gcd(*zeros))
        v = 0
        while g % p == 0:
            g //= p
            v += 1
        return StructureCase("PrimePowerGapCase", gap_exponent=a - v, **base)

    pq = _two_primes(n)
    if pq is not None:
        p, q = pq
        # spectrum supported on a proper subgroup -> periodic set
        g = math.gcd(n, math.gcd(*nz_support)) if nz_support else n
        if g in (p, q):
            return StructureCase("TwoPrimePeriodic", period=n // g, **base)
        both = frozenset(range(p, n, p)) | frozenset(range(q, n, q))
        # zeros confined to pZ u qZ, or spectrum confined there: the set
        # splits as a p-periodic plus a q-periodic part
        if zeros <= both or nz_support <= both:
            return StructureCase("TwoPrimeMixedCase", **base)
        raise ClassificationError(
            f"n={n}=pq pattern outside the exhaustive case list: "
            f"zeros={sorted(zeros)}")

    # >= 3 prime factors counted with multiplicity: no exhaustive case list.
    return StructureCase("Unclassified", **base)
