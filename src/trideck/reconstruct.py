"""Recovery of a nonnegative function on Z/nZ from its 3-deck/bispectrum.

Magnitudes come from the diagonal B(l,-l); phases are propagated over the
spectral support graph (an edge for each in-support relation l1+l2=l).
Every constraint is linear in the unknown phases, and the solution set of a
connected component is a one-parameter family theta(l) + t*mu(l) with
integer weights mu; wrap-around and conjugate-symmetry constraints pin t to
finitely many values, which are exactly the translates of the original.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence

import numpy as np

from .cyclic import (Bispectrum, CyclicFunction, KDeck, bispectrum_from_deck,
                     canonical_rotation, three_deck_fft, translate)
from .cyclotomic import _factorize, function_poly, zero_pattern_of_poly
from .errors import DomainError, InconsistentBispectrumError

PHASE_TOL = 1e-6
SUPPORT_REL_TOL = 1e-8

TWO_PI = 2 * np.pi


def _wrap(x: float) -> float:
    """Distance of a phase to 0 modulo 2*pi."""
    return abs((x + np.pi) % TWO_PI - np.pi)


@dataclasses.dataclass(frozen=True)
class PhaseAssignment:
    """Unimodular spectrum phases xi(l) on the reached support, the integer
    gauge weights mu(l), the propagation trace, and any unreached indices.

    xi(0) = 1 and xi(n-l) = conj(xi(l)) on the reached support; the ratio of
    any two consistent assignments is multiplicative over in-support sums.
    """

    n: int
    xi: dict[int, complex]
    mu: dict[int, int]
    gauge: str
    trace: tuple[dict, ...]
    unreached: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "gauge": self.gauge,
            "phases": {str(l): [v.real, v.imag]
                       for l, v in sorted(self.xi.items())},
            "trace": list(self.trace),
            "unreached": sorted(self.unreached),
        }


@dataclasses.dataclass(frozen=True)
class Uniqueness:
    kind: str  # UniqueUpToTranslation | FiniteFamily | Indeterminate
    count: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class ReconstructionReport:
    candidates: tuple[CyclicFunction, ...]
    uniqueness: Uniqueness
    gauge_shift: int
    trace: tuple[dict, ...]
    phases: Optional[PhaseAssignment] = None

    def to_json_dict(self) -> dict:
        return {
            "candidates": [c.to_json_dict() for c in self.candidates],
            "uniqueness": {"kind": self.uniqueness.kind,
                           "count": self.uniqueness.count},
            "gauge_shift": self.gauge_shift,
            "trace": [{"target": t["target"], "via": t["via"]}
                      for t in self.trace],
        }


def magnitudes_from_bispectrum(B: Bispectrum,
                               tol: float = 1e-9) -> np.ndarray:
    """|fhat(l)| from the diagonal: fhat(0) = B(0,0)^(1/3) and
    |fhat(l)|^2 = B(l,-l) / fhat(0)."""
    n = B.n
    scale = max(float(np.max(np.abs(B.values))), 1.0)
    b00 = B[0, 0]
    if abs(b00.imag) > tol * scale or b00.real < -tol * scale:
        raise InconsistentBispectrumError(
            f"B(0,0) = {b00} is not real nonnegative")
    fhat0 = max(b00.real, 0.0) ** (1 / 3)
    diag = np.array([B[l, -l] for l in range(n)])
    if fhat0**3 <= tol * scale:
        if np.max(np.abs(diag)) > tol * scale:
            raise InconsistentBispectrumError(
                "fhat(0) = 0 but some B(l,-l) != 0")
        return np.zeros(n)
    sq = diag.real / fhat0
    if np.min(sq) < -tol * scale or np.max(np.abs(diag.imag)) > tol * scale:
        raise InconsistentBispectrumError(
            "some B(l,-l) is not real nonnegative")
    mags = np.sqrt(np.clip(sq, 0.0, None))
    mags[0] = fhat0
    return mags


def _support_edges(n: int, support: Sequence[int]):
    """For each target l (ascending) the in-support pairs (l1,l2),
    l1 <= l2, with l1 + l2 = l mod n, in lexicographic order."""
    sset = set(support)
    edges = {}
    for l in sorted(sset):
        pairs = []
        for l1 in sorted(sset):
            l2 = (l - l1) % n
            if l2 in sset and l1 <= l2:
                pairs.append((l1, l2))
        edges[l] = pairs
    return edges


def propagate_phases(support, B: Bispectrum) -> PhaseAssignment:
    """Breadth-first phase closure from the gauge seeds {0, s} (s the
    smallest nonzero support index), then exact resolution of the remaining
    one-parameter gauge from wrap-around and conjugacy constraints."""
    n = B.n
    if hasattr(support, "support"):  # a ZeroPattern
        support = support.support
    sset = set(int(l) % n for l in support)
    argB = np.angle(B.values)
    edges = _support_edges(n, sset)

    theta: dict[int, float] = {}
    mu: dict[int, int] = {}
    trace: list[dict] = []
    if 0 in sset:
        theta[0], mu[0] = 0.0, 0
    nonzero = sorted(sset - {0})
    if nonzero:
        s = nonzero[0]
        theta[s], mu[s] = 0.0, 1
        gauge = f"xi(0)=1, xi({s})=1 seed"
    else:
        gauge = "xi(0)=1"

    changed = True
    while changed:
        changed = False
        for l in sorted(sset):
            if l in theta:
                continue
            for l1, l2 in edges[l]:
                if l1 in theta and l2 in theta:
                    theta[l] = theta[l1] + theta[l2] - argB[l1, l2]
                    mu[l] = mu[l1] + mu[l2]
                    trace.append({"target": l, "via": [l1, l2]})
                    changed = True
                    break

    # Residual constraints: rho + t * dmu = 0 (mod 2*pi).
    constraints: list[tuple[int, float]] = []
    for l, pairs in edges.items():
        if l not in theta:
            continue
        for l1, l2 in pairs:
            if l1 in theta and l2 in theta:
                rho = theta[l1] + theta[l2] - theta[l] - argB[l1, l2]
                constraints.append((mu[l1] + mu[l2] - mu[l], rho))
    for l in list(theta):
        lc = (n - l) % n
        if lc in theta:  # conjugate symmetry of a real input
            constraints.append((mu[l] + mu[lc], theta[l] + theta[lc]))

    nz = sorted(((abs(d), d, r) for d, r in constraints if d != 0))
    if nz:
        _, d0, r0 = nz[0]
        cands = sorted(((-r0 + TWO_PI * k) / d0) % TWO_PI
                       for k in range(abs(d0)))
    else:
        cands = [0.0]
    sols = [t for t in cands
            if all(_wrap(r + t * d) <= PHASE_TOL for d, r in constraints)]
    if not sols:
        raise InconsistentBispectrumError(
            "phase propagation found contradictory cycles; the input is "
            "not a genuine bispectrum of a real nonnegative function")
    t = sols[0]
    xi = {l: complex(np.exp(1j * (theta[l] + t * mu[l]))) for l in theta}
    return PhaseAssignment(n, xi, dict(mu), gauge, tuple(trace),
                           frozenset(sset) - set(theta))


def _inverse_to_function(n: int, ghat: np.ndarray,
                         fhat0: float) -> CyclicFunction:
    g = np.fft.fft(ghat) / n  # inverse of the positive-exponent transform
    peak = max(float(np.max(np.abs(g.real))), 1e-30)
    if float(np.max(np.abs(g.imag))) > 1e-8 * peak:
        raise InconsistentBispectrumError(
            "reconstruction is not real; corrupt bispectrum input")
    vals = g.real.copy()
    neg = vals < 0
    if np.any(vals[neg] < -1e-8 * max(fhat0, 1e-30)):
        raise InconsistentBispectrumError(
            "reconstruction has a materially negative value")
    vals[neg] = 0.0
    return CyclicFunction.from_floats(vals)


def _verify_deck(cand: CyclicFunction, deck: KDeck) -> bool:
    """Does cand have this 3-deck, to relative 1e-8 of the deck's scale?"""
    got = three_deck_fft(cand).as_floats()
    want = deck.as_floats()
    scale = max(float(np.max(np.abs(want))), 1e-30)
    return float(np.max(np.abs(got - want))) <= 1e-8 * scale


def reconstruct_from_deck(deck: KDeck) -> ReconstructionReport:
    """Magnitude extraction + phase propagation; on full closure a single
    candidate (canonicalized to its smallest rotation), on a split support
    with pq structure the finite solution family, else Indeterminate."""
    if deck.k != 3:
        raise DomainError(f"expected a 3-deck, got k={deck.k}")
    n = deck.n
    B = bispectrum_from_deck(deck)
    mags = magnitudes_from_bispectrum(B)
    fhat0 = float(mags[0])
    if fhat0 <= 0:
        zero = CyclicFunction.of([0] * n)
        return ReconstructionReport((zero,),
                                    Uniqueness("UniqueUpToTranslation"), 0, ())
    support = {l for l in range(n) if mags[l] > SUPPORT_REL_TOL * fhat0}

    pa = propagate_phases(support, B)
    if not pa.unreached:
        ghat = np.zeros(n, dtype=np.complex128)
        for l in support:
            ghat[l] = mags[l] * pa.xi[l]
        cand = _inverse_to_function(n, ghat, fhat0)
        if not _verify_deck(cand, deck):
            raise InconsistentBispectrumError(
                "candidate does not reproduce the input deck")
        canon, shift = canonical_rotation(cand)
        return ReconstructionReport((canon,),
                                    Uniqueness("UniqueUpToTranslation"),
                                    shift, pa.trace, pa)

    fact = _factorize(n)
    if len(fact) == 2 and all(a == 1 for a in fact.values()):
        p, q = sorted(fact)
        if all(l % p == 0 or l % q == 0 for l in support):
            cands = _pq_family(deck, p, q)
            if cands is not None:
                return ReconstructionReport(
                    tuple(cands), Uniqueness("FiniteFamily", len(cands)),
                    0, pa.trace, pa)
    return ReconstructionReport((), Uniqueness("Indeterminate"), 0,
                                pa.trace, pa)


def _pq_family(deck: KDeck, p: int,
               q: int) -> Optional[list[CyclicFunction]]:
    """The translation orbit of one representative r, rebuilt from the
    deck's folds onto Z/pZ and Z/qZ.  A fold is the 3-deck of the folded
    function on a prime modulus, so it is recovered up to translation; the
    lifted folds are the p- and q-periodic parts of r, and by the Chinese
    remainder theorem a translation of each part is one translation of r.
    None when r is materially negative or does not reproduce the deck."""
    n = p * q
    parts = []
    for period, other in ((p, q), (q, p)):
        # Python ints: a fold entry sums other^2 entries and can pass int64
        v = deck.values.astype(object) if deck.exact else deck.values
        fold = v.reshape(other, period, other, period).sum(axis=(0, 2))
        rep = reconstruct_from_deck(KDeck(period, 3, fold, deck.denominator))
        if len(rep.candidates) != 1:
            return None
        parts.append(rep.candidates[0].values)
    a, b = parts
    total = sum(a)
    vals = [a[j % p] / q + b[j % q] / p - total / n for j in range(n)]
    low = min(min(vals), 0)
    # Round-off can leave r slightly negative where f is 0: raise r by a
    # constant (clipping would break the split spectrum), within the
    # tolerance of _inverse_to_function.
    r = CyclicFunction(n, tuple(v - low for v in vals))
    if low < -1e-8 * total or not _verify_deck(r, deck):
        return None
    return solutions_pq(canonical_rotation(r)[0], p, q)


def solutions_pq(f: CyclicFunction, p: int, q: int) -> list[CyclicFunction]:
    """The solution family of a rational f on Z/pqZ whose spectrum lives in
    the two prime subgroup supports: g_{j,l} = f_p(.-j) + f_q(.-l) for the
    p-periodic part f_p and the q-periodic part f_q of f.  By the Chinese
    remainder theorem g_{j,l} is the translate of f by the s with
    s = j mod p and s = l mod q, so the family is the p*q translates of f,
    f itself first, and all members share the exact 3-deck of f.
    """
    n = f.n
    for r in (p, q):
        if r < 2 or any(r % d == 0 for d in range(2, int(math.isqrt(r)) + 1)):
            raise DomainError(f"{r} is not prime")
    if p == q or n != p * q:
        raise DomainError(f"need n = p*q with distinct primes, got "
                          f"n={n}, p={p}, q={q}")
    pattern = zero_pattern_of_poly(n, function_poly(n, f.values))
    allowed = {l for l in range(n) if l % p == 0 or l % q == 0}
    if not pattern.support <= allowed:
        raise DomainError(
            "spectrum support leaves the two subgroup supports: "
            f"{sorted(pattern.support - allowed)}")
    a, b = q * pow(q, -1, p), p * pow(p, -1, q)  # CRT idempotents
    return [translate(f, j * a + l * b) for j in range(p) for l in range(q)]
