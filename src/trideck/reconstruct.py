"""Recovery of a nonnegative function on Z/nZ from its 3-deck/bispectrum.

Magnitudes come from the diagonal B(l,-l).  Phases come from frequency
marching: with xi(0) = 1 and xi(s) = 1 for the smallest nonzero support
index s as seeds, each in-support target l, in increasing order, takes the
phase of the magnitude-weighted sum of xi(l1) xi(l2) conj(B(l1,l2)) over the
in-support pairs l1 + l2 = l already reached (Bendory, Boumal, Ma, Zhao and
Singer, arXiv:1705.00641; Sadler and Giannakis, JOSA A 9(1), 1992).  The
seed at s leaves a one-parameter gauge: the phases are xi(l) exp(i t mu(l))
with integer weights mu, and every residual relation of weight d pins t to
one of finitely many values, the translates of the original.  t is chosen by
weighted least squares over those values, and the result must reproduce the
bispectrum on the reached support to a relative 1e-6 of max|B|.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .cyclic import (Bispectrum, CyclicFunction, KDeck, bispectrum_from_deck,
                     canonical_rotation, three_deck_fft, translate)
from .cyclotomic import _factorize, function_poly, zero_pattern_of_poly
from .errors import DomainError, InconsistentBispectrumError

SUPPORT_REL_TOL = 1e-8
RESIDUAL_REL_TOL = 1e-6
DIAGONAL_REL_TOL = 1e-9

TWO_PI = 2 * np.pi


@dataclasses.dataclass(frozen=True)
class PhaseAssignment:
    """Unimodular spectrum phases xi(l) on the reached support, the
    propagation trace, and any unreached indices.

    xi(0) = 1 and xi(n-l) = conj(xi(l)) on the reached support; the ratio of
    any two consistent assignments is multiplicative over in-support sums.
    """

    n: int
    xi: dict[int, complex]
    trace: tuple[dict, ...]
    unreached: frozenset[int]


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

    def to_json_dict(self) -> dict:
        return {
            "candidates": [c.to_json_dict() for c in self.candidates],
            "uniqueness": {"kind": self.uniqueness.kind,
                           "count": self.uniqueness.count},
            "gauge_shift": self.gauge_shift,
            "trace": [{"target": t["target"], "via": t["via"]}
                      for t in self.trace],
        }


def magnitudes_from_bispectrum(B: Bispectrum) -> np.ndarray:
    """|fhat(l)| from the diagonal: fhat(0) = B(0,0)^(1/3) and
    |fhat(l)|^2 = B(l,-l) / fhat(0), each checked real and nonnegative to
    DIAGONAL_REL_TOL of max(max|B|, 1)."""
    n = B.n
    tol = DIAGONAL_REL_TOL
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


def _unit(z):
    """z / |z|, and 0 where z is 0."""
    r = np.abs(z)
    return z / np.where(r > 0, r, 1.0)


def propagate_phases(support, B: Bispectrum) -> PhaseAssignment:
    """Frequency marching from the gauge seeds {0, s} (s the smallest
    nonzero support index), then the remaining one-parameter gauge by
    weighted least squares over its finitely many candidates, and a
    conjugate-symmetric average.

    The consistency check is one bound on the bispectrum residual, relative
    to max|B|: a wrong phase on an entry with |B| below RESIDUAL_REL_TOL
    times max|B| is not detected here.  The final check is _verify_deck in
    reconstruct_from_deck, which compares each candidate's 3-deck with the
    input to relative 1e-8."""
    n = B.n
    if hasattr(support, "support"):  # a ZeroPattern
        support = support.support
    targets = sorted(set(int(l) % n for l in support))
    Bc = np.conj(B.values)
    idx = np.arange(n)
    xi = np.zeros(n, dtype=np.complex128)
    mu = np.zeros(n, dtype=np.int64)
    known = np.zeros(n, dtype=bool)
    if 0 in targets:
        xi[0], known[0] = 1.0, True
    nonzero = [l for l in targets if l]
    if nonzero:
        s = nonzero[0]
        xi[s], mu[s], known[s] = 1.0, 1, True

    # Targets in increasing order; a further pass picks up the targets that
    # only wrap-around pairs, or pairs reached later, can reach.
    trace: list[dict] = []
    changed = True
    while changed:
        changed = False
        for l in targets:
            if known[l]:
                continue
            l2 = (l - idx) % n
            l1 = np.flatnonzero(known & known[l2] & (idx <= l2))
            if not len(l1):
                continue
            l2 = l2[l1]
            w = mu[l1] + mu[l2]
            same = w == w[0]  # sum only pairs of the first pair's weight
            a, b = l1[same], l2[same]
            xi[l] = _unit(np.sum(xi[a] * xi[b] * Bc[a, b]))
            mu[l], known[l] = w[0], True
            trace.append({"target": l, "via": [int(l1[0]), int(l2[0])]})
            changed = True

    # Every reached pair with a reached sum: z = |B| exp(-i t d) at the
    # true gauge t, so t maximizes sum_d Re(exp(i t d) S_d).
    r = np.flatnonzero(known)
    l3 = (r[:, None] + r[None, :]) % n
    m = known[l3]
    l1, l2, l3 = (np.broadcast_to(r[:, None], m.shape)[m],
                  np.broadcast_to(r[None, :], m.shape)[m], l3[m])
    Bm = Bc[l1, l2]
    d = mu[l1] + mu[l2] - mu[l3]
    z = xi[l1] * xi[l2] * np.conj(xi[l3]) * Bm
    ds, inv = np.unique(d, return_inverse=True)
    S = (np.bincount(inv, z.real, len(ds))
         + 1j * np.bincount(inv, z.imag, len(ds)))
    ds, S = ds[ds != 0], S[ds != 0]
    t = 0.0
    if len(ds):
        d0 = min(ds, key=lambda v: (abs(v), v))
        cands = ((TWO_PI * np.arange(abs(d0)) - np.angle(S[ds == d0][0]))
                 / d0) % TWO_PI
        score = (np.exp(1j * np.outer(cands, ds)) @ S).real
        # t + 2*pi*j/gcd(ds) is the same gauge; take the least of them
        t = float(cands[np.argmax(score)] % (TWO_PI / np.gcd.reduce(ds)))
    xi = xi * np.exp(1j * t * mu)
    neg = (-idx) % n
    sym = known & known[neg]
    xi[sym] = _unit(xi[sym] + np.conj(xi[neg[sym]]))

    resid = np.abs(xi[l1] * xi[l2] * np.conj(xi[l3]) * Bm - np.abs(Bm))
    # written so that a NaN residual fails too
    if not resid.max(initial=0.0) <= RESIDUAL_REL_TOL * np.abs(Bc).max():
        raise InconsistentBispectrumError(
            "phase propagation found contradictory cycles; the input is "
            "not a genuine bispectrum of a real nonnegative function")
    return PhaseAssignment(n, {int(l): complex(xi[l]) for l in r},
                           tuple(trace), frozenset(targets) - set(r.tolist()))


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
                                    shift, pa.trace)

    fact = _factorize(n)
    if len(fact) == 2 and all(a == 1 for a in fact.values()):
        p, q = sorted(fact)
        if all(l % p == 0 or l % q == 0 for l in support):
            cands = _pq_family(deck, p, q)
            if cands is not None:
                return ReconstructionReport(
                    tuple(cands), Uniqueness("FiniteFamily", len(cands)),
                    0, pa.trace)
    return ReconstructionReport((), Uniqueness("Indeterminate"), 0, pa.trace)


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
        if _factorize(r) != {r: 1}:
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
