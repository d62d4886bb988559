"""Exact triple-correlation geometry for finite unions of real intervals.

Endpoints are exact rationals and every sweep is exact; the boundary
structure this module probes is blurred by floats.  Open vs closed endpoints
are not distinguished (measure semantics).
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cyclotomic import _as_fraction
from .errors import DomainError


@dataclasses.dataclass(frozen=True)
class IntervalSet:
    """Finite disjoint union of bounded intervals (a_k, b_k), sorted,
    with a_k < b_k < a_{k+1}."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        prev_end = None
        for a, b in self.intervals:
            if not a < b:
                raise DomainError(f"degenerate interval ({a}, {b})")
            if prev_end is not None and not prev_end < a:
                raise DomainError(
                    f"intervals not disjoint/sorted near {prev_end} and {a}")
            prev_end = b

    @classmethod
    def of(cls, pairs: Iterable) -> "IntervalSet":
        return cls(tuple((_as_fraction(a), _as_fraction(b)) for a, b in pairs))

    @property
    def measure(self) -> Fraction:
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def translate(self, a) -> "IntervalSet":
        a = _as_fraction(a)
        return IntervalSet(tuple((lo + a, hi + a) for lo, hi in self.intervals))

    def contains(self, t) -> bool:
        """Open-interval membership; endpoints count as outside."""
        t = _as_fraction(t)
        for a, b in self.intervals:
            if a < t < b:
                return True
        return False

    def to_json_dict(self) -> dict:
        return {"intervals": [[str(a), str(b)] for a, b in self.intervals]}

    @classmethod
    def from_json_dict(cls, d) -> "IntervalSet":
        """Raises DomainError unless d is {"intervals": [[a, b], ...]} with
        finite, non-boolean endpoints."""
        pairs = d.get("intervals") if isinstance(d, dict) else None
        if not isinstance(pairs, list) or not all(
                isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
            raise DomainError(
                'an interval set is {"intervals": [[a, b], ...]}')
        if any(isinstance(x, bool) or isinstance(x, float)
               and not math.isfinite(x) for p in pairs for x in p):
            raise DomainError("interval endpoints must be finite numbers "
                              "or rational strings")
        return cls.of(pairs)


@dataclasses.dataclass(frozen=True)
class GapProfile:
    min_gap: Optional[Fraction]  # None encodes +infinity (no internal gap)
    gap_list: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {"min_gap": None if self.min_gap is None else str(self.min_gap),
                "gaps": [str(g) for g in self.gap_list]}


def _intersect(a: Sequence[tuple[Fraction, Fraction]],
               b: Sequence[tuple[Fraction, Fraction]]
               ) -> list[tuple[Fraction, Fraction]]:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def triple_correlation_exact(E: IntervalSet, x, y) -> Fraction:
    """N_E(x,y) = |E cap (E-x) cap (E-y)|, exact."""
    x, y = _as_fraction(x), _as_fraction(y)
    cur = _intersect(E.intervals, E.translate(-x).intervals)
    cur = _intersect(cur, E.translate(-y).intervals)
    return sum((b - a for a, b in cur), Fraction(0))


def gap_functional(E: IntervalSet, x, y) -> Fraction:
    """G_E(x,y) = N_E(0,y) - N_E(x,y) = |{t in E: t+x not in E, t+y in E}|."""
    return triple_correlation_exact(E, 0, y) - triple_correlation_exact(E, x, y)


def gap_profile(E: IntervalSet) -> GapProfile:
    """Gamma_E and the gaps; finite disjoint interval lists always have
    lower-bounded gaps.

    The criterion: points of E within distance eps = Gamma_E span a
    subinterval of E.  Malformed (adjacent/overlapping) lists are rejected
    at IntervalSet construction.
    """
    gaps = tuple(E.intervals[i + 1][0] - E.intervals[i][1]
                 for i in range(len(E.intervals) - 1))
    return GapProfile(min(gaps) if gaps else None, gaps)


def partial_x_deck(E: IntervalSet, x, y) -> int:
    """d/dx N_E(x,y) in the regime -Gamma_E < x < 0, by the boundary
    formula: the number of intervals [a_k, b_k] of E with a_k - x and
    a_k - x + y both in E.

    At a breakpoint a point may sit on an endpoint, so both one-sided
    derivatives are counted: the right one with membership in the
    half-open intervals (a, b], the left one with [a, b).  Their common
    value is returned, and a DomainError names both when they differ."""
    x, y = _as_fraction(x), _as_fraction(y)
    prof = gap_profile(E)
    if not (x < 0 and (prof.min_gap is None or -x < prof.min_gap)):
        raise DomainError(
            f"x={x} outside the valid regime -Gamma_E < x < 0")

    def derivative(closed_right: bool) -> int:
        def member(t) -> bool:
            return any(lo < t <= hi if closed_right else lo <= t < hi
                       for lo, hi in E.intervals)
        return sum(member(a - x) and member(a - x + y)
                   for a, _ in E.intervals)

    right, left = derivative(True), derivative(False)
    if right != left:
        raise DomainError(
            f"N_E is not differentiable in x at x={x}, y={y}: the left "
            f"derivative is {left} and the right derivative is {right}")
    return right


def translate_equal_sets(E: IntervalSet, F: IntervalSet,
                         tol=0) -> Optional[Fraction]:
    """Shift a with F = E - a up to endpoint tolerance tol, else None."""
    tol = _as_fraction(tol)
    if len(E.intervals) != len(F.intervals):
        return None
    if not E.intervals:
        return Fraction(0)
    a = E.intervals[0][0] - F.intervals[0][0]
    for (ea, eb), (fa, fb) in zip(E.intervals, F.intervals):
        if abs((ea - a) - fa) > tol or abs((eb - a) - fb) > tol:
            return None
    return a
