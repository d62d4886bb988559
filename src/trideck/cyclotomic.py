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

from .config import compute_budget
from .errors import BudgetError, DomainError, TrideckError


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
# Integer polynomials as coefficient lists, lowest degree first, built and
# tested from the binomials x^e - 1 alone.

def _binomials(m: int) -> tuple[list[int], list[int]]:
    """(up, down): the exponents m/s over the squarefree s | m with
    mu(s) = 1 and with mu(s) = -1.  Moebius inversion of
    x^m - 1 = prod_{d | m} Phi_d gives Phi_m * prod_down = prod_up, each
    product taken over the x^e - 1."""
    up, down = [m], []
    for p in _factorize(m):
        up, down = up + [e // p for e in down], down + [e // p for e in up]
    return up, down


def _over(c: list[int], e: int) -> Optional[list[int]]:
    """The quotient of c by x^e - 1, or None when there is a remainder.
    c = q * (x^e - 1) reads c_j = q_(j-e) - q_j, so q is minus the running
    sums of c along each residue class mod e, and the division is exact
    when each class sums to 0."""
    q = [-a for a in c]
    for j in range(e, len(q)):
        q[j] += q[j - e]
    return None if any(q[-e:]) else q[:-e]


def _ratio(c: list[int], times: list[int],
           over: list[int]) -> Optional[list[int]]:
    """c times the x^e - 1 of `times`, then divided by those of `over` in
    turn; None when a division leaves a remainder."""
    for e in times:
        c = [a - b for a, b in zip([0] * e + c, c + [0] * e)]
    for e in over:
        c = _over(c, e)
        if c is None:
            return None
    return c


def cyclotomic(m: int) -> tuple[int, ...]:
    """m-th cyclotomic polynomial, prod_up / prod_down."""
    if m < 1:
        raise DomainError(f"cyclotomic order must be >= 1, got {m}")
    up, down = _binomials(m)
    poly = _ratio([1], up, down)
    if poly is None:
        raise TrideckError(f"inexact cyclotomic division at m={m}")
    return tuple(poly)


def _divisible(coeffs: Sequence[int], d: int) -> bool:
    """Whether Phi_d divides the polynomial P with these coefficients.
    Phi_d divides x^d - 1, so it divides P exactly when it divides r, P
    folded mod x^d - 1, and as Phi_d * prod_down = prod_up, exactly when
    r * prod_down divides by each binomial of up in turn."""
    up, down = _binomials(d)
    return _ratio([sum(coeffs[i::d]) for i in range(d)], down, up) is not None


# ---------------------------------------------------------------------------
# Spectral zeros.

def _charged_divisors(n: int) -> list[int]:
    """The divisors of n, once the n * tau(n) additions that fold a
    polynomial mod x^d - 1 for every d | n are charged to the compute
    budget.  n alone is charged first, so only a small n is factorized."""
    if n < 1:
        raise DomainError(f"modulus must be >= 1, got {n}")
    budget, divisors = compute_budget(), [1]
    if n <= budget:
        for p, a in _factorize(n).items():
            divisors = [d * p**i for d in divisors for i in range(a + 1)]
    if n * len(divisors) > budget:
        raise BudgetError(f"the zero test at n={n} takes n * tau(n) "
                          "additions, over the compute budget")
    return divisors


def _subset_poly(n: int, E: Iterable[int]) -> list[int]:
    coeffs = [0] * n
    for j in E:
        coeffs[j % n] += 1
    return coeffs


def function_poly(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Integer polynomial sharing the spectral zeros of a rational function."""
    coeffs = _cleared(values)[0]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclasses.dataclass(frozen=True)
class ZeroPattern:
    n: int
    zeros: frozenset[int]
    support: frozenset[int]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "zeros": sorted(self.zeros),
                "support": sorted(self.support)}


def zero_set(n: int, E: Iterable[int]) -> ZeroPattern:
    _charged_divisors(n)  # before the n coefficients are built
    return zero_pattern_of_poly(n, _subset_poly(n, E))


def zero_pattern_of_poly(n: int, coeffs: Sequence[int]) -> ZeroPattern:
    # Divisibility by Phi_d settles a whole Galois class of l at once: l is
    # a zero exactly when Phi_(n/gcd(n,l)) divides P, and l = 0 when Phi_1
    # does, that is when P(1) = 0.
    orders = {d for d in _charged_divisors(n) if _divisible(coeffs, d)}
    zeros = frozenset(l for l in range(n) if n // math.gcd(n, l) in orders)
    return ZeroPattern(n, zeros, frozenset(range(n)) - zeros)


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
