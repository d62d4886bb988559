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
bispectrum on the reached support to a relative 1e-6 of max|B|.  A candidate
from an exact deck is exact: it is accepted only when its exact 3-deck is the
input deck.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .cyclic import (_FLOAT64_EXACT, Bispectrum, CyclicFunction, KDeck,
                     _circulant, _exact_deck, bispectrum_from_deck,
                     canonical_rotation, deck_equal, three_deck_fft,
                     translate)
from .cyclotomic import (_lattice_denominator, _two_primes, function_poly,
                         zero_pattern_of_poly)
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


# the report's text, json.dumps(to_json_dict(), indent=2, sort_keys=True)
# and a newline, as %-templates at the depth each part is written at
_REPORT = ('{\n  "candidates": %s,\n  "gauge_shift": %d,\n  "trace": %s,\n'
           '  "uniqueness": {\n    "count": %s,\n    "kind": %s\n  }\n}\n')
_CANDIDATE = ('{\n      "n": %d,\n      "values": [\n        %s\n'
              '      ]\n    }')
_STEP = ('{\n      "target": %d,\n      "via": [\n        %d,\n'
         '        %d\n      ]\n    }')
_ITEM_SEP = ",\n    "  # between the candidates, and the trace steps
_VALUE_SEP = ",\n        "  # between the values of a candidate


def _json_list(items: list) -> str:
    """The list of the item texts at depth 1 of the report."""
    if not items:
        return "[]"
    return "[\n    " + _ITEM_SEP.join(items) + "\n  ]"


def _tokens(values) -> list[str]:
    """The JSON text of each value: its numerator when it is an integer,
    else the string "p/q", which needs no escaping."""
    return [str(v.numerator) if v.denominator == 1 else '"%s"' % v
            for v in values]


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

    def to_json(self) -> str:
        """The file text: json.dumps(self.to_json_dict(), indent=2,
        sort_keys=True) and a final newline, in one pass.

        A member that is a rotation of member 0, as a translate is, holds
        member 0's value objects, so its values are a window of member 0's
        tokens taken twice over, cut where member 0 holds the member's
        first value.  Each such member is checked exactly against that
        rotation before the window is used; any other member, as in a
        report built by hand, is formatted on its own."""
        texts = []
        if self.candidates:
            first = self.candidates[0].values
            n = len(first)
            tokens = _tokens(first)
            doubled = tokens + tokens
            where = {id(v): i for i, v in enumerate(first)}
            for c in self.candidates:
                cut = where.get(id(c.values[0]))
                if cut is not None and c.values == first[cut:] + first[:cut]:
                    body = _VALUE_SEP.join(doubled[cut:cut + n])
                else:
                    body = _VALUE_SEP.join(_tokens(c.values))
                texts.append(_CANDIDATE % (c.n, body))
        steps = [_STEP % (t["target"], *t["via"]) for t in self.trace]
        count = self.uniqueness.count
        return _REPORT % (_json_list(texts), self.gauge_shift,
                          _json_list(steps),
                          "null" if count is None else "%d" % count,
                          encode_basestring_ascii(self.uniqueness.kind))


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
    l = np.arange(n)
    diag = B.values[l, -l % n]
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


def _marching_schedule(n: int, targets: list[int]):
    """The frequency marching of propagate_phases without its floats, which
    depends on n and the targets alone: the order in which targets are
    reached and the pairs each one sums.

    The gauge seeds are 0 (when a target) with weight mu(0) = 0 and the
    least nonzero target s with mu(s) = 1.  Targets are taken in increasing
    order, and a further pass picks up those that only wrap-around pairs,
    or pairs reached later, can reach.  Target l is reached through the
    pairs l1 <= l2 = (l - l1) % n of reached indices, takes the weight
    mu(l1) + mu(l2) of the first of them, and sums the pairs of that
    weight, in increasing l1.

    The reached indices are the bits of `known`, and `back` has bit j set
    when (2n - 1 - j) % n is reached, so that bit l1 of back >> (n - 1 - l)
    says whether l - l1 is.  Returns the targets in the order reached, the
    first pairs (the trace), the pairs (l1, l2) to sum, target after
    target, with the end of each target's run, and mu and known as arrays.
    """
    mu = [0] * n
    known = back = 0
    seeds = [(0, 0)] if targets[:1] == [0] else []
    if len(targets) > len(seeds):
        seeds.append((targets[len(seeds)], 1))
    for l, w in seeds:
        mu[l] = w
        known |= 1 << l
        back |= (1 << (n - 1 - l)) | (1 << (2 * n - 1 - l))
    order, via, masks = [], [], []
    changed = True
    while changed:
        changed = False
        for l in targets:
            if known >> l & 1:
                continue
            lo = n - 1 - l
            # l1 <= (l - l1) % n: l1 <= l // 2, or l < l1 <= (n + l) // 2
            le = ((1 << (l // 2 + 1)) - 1
                  | (1 << ((n + l) // 2 + 1)) - (1 << (l + 1)))
            pairs = known & (back >> lo) & le
            if not pairs:
                continue
            a = (pairs & -pairs).bit_length() - 1
            b = (l - a) % n
            mu[l] = mu[a] + mu[b]
            known |= 1 << l
            back |= (1 << lo) | (1 << (lo + n))
            order.append(l)
            via.append([a, b])
            masks.append(pairs)
            changed = True
    # each mask unpacked to 2**shift >= n bits, so that bit i of the row
    # of masks is the pair of step i >> shift with l1 = i & (2**shift - 1)
    shift = max(n - 1, 4).bit_length()
    width = 1 << (shift - 3)
    mu = np.array(mu, dtype=np.int64)
    known = np.unpackbits(np.frombuffer(known.to_bytes(width, "little"),
                                        np.uint8),
                          count=n, bitorder="little").astype(bool)
    bits = np.unpackbits(
        np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks),
                      np.uint8), bitorder="little")
    i = bits.nonzero()[0]
    step, l1 = i >> shift, i & ((1 << shift) - 1)
    ls = np.array(order, dtype=np.int64)
    l2 = ls[step] - l1
    l2[l2 < 0] += n
    same = mu[l1] + mu[l2] == mu[ls][step]
    l1, l2 = l1[same], l2[same]
    ends = np.bincount(step[same], minlength=len(order)).cumsum()
    return order, via, l1, l2, ends.tolist(), mu, known


def propagate_phases(support, B: Bispectrum) -> PhaseAssignment:
    """Frequency marching from the gauge seeds {0, s} (s the smallest
    nonzero support index), then the remaining one-parameter gauge by
    weighted least squares over its finitely many candidates, and a
    conjugate-symmetric average.

    The consistency check is one bound on the bispectrum residual, relative
    to max|B|: a wrong phase on an entry with |B| below RESIDUAL_REL_TOL
    times max|B| is not detected here.  The final check is _verify_deck in
    reconstruct_from_deck, which compares each candidate's 3-deck with the
    input, exactly for an exact deck and to relative 1e-8 for a float
    deck."""
    n = B.n
    if hasattr(support, "support"):  # a ZeroPattern
        support = support.support
    targets = sorted(set(int(l) % n for l in support))
    order, via, l1, l2, ends, mu, known = _marching_schedule(n, targets)
    xi = np.zeros(n, dtype=np.complex128)
    xi[known] = 1.0  # the seeds; every other reached phase is set below
    Bab = B.values[l1, l2]
    np.conj(Bab, out=Bab)
    start = 0
    for l, end in zip(order, ends):
        a, b = l1[start:end], l2[start:end]
        z = (xi[a] * xi[b] * Bab[start:end]).sum()
        # _unit(z) bit for bit, without its array temporaries; the builtin
        # abs(z) differs from np.abs(z) in the last bit
        r = np.abs(z)
        xi[l] = z / (r if r > 0 else 1.0)
        start = end
    trace = tuple({"target": l, "via": v} for l, v in zip(order, via))

    # Every reached pair with a reached sum: z = |B| exp(-i t d) at the
    # true gauge t, so t maximizes sum_d Re(exp(i t d) S_d).  The pairs are
    # the r x r block of reached indices masked to reached sums, taken in
    # row-major order, and each S_d sums its pairs in that order.  A value
    # at the sums l1 + l2 is read from the block of its _circulant.  The
    # block is built conjugated, on B itself: conj(a b) = conj(a) conj(b)
    # holds bit for bit, as negation is exact, so conj(z) is z's bits.
    r = known.nonzero()[0]
    full = len(r) == n

    def block(w):
        """Rows and columns r of the n x n array w."""
        return w if full else w.take(r, 0).take(r, 1)

    m = block(_circulant(known))
    every = full or m.all()  # then the block needs no mask
    Br = block(B.values)
    out = np.empty(Br.shape, dtype=np.complex128)

    def cycles(xi):
        """conj(xi(l1)) conj(xi(l2)) xi(l1 + l2) B(l1, l2) on the block, the
        conjugate of each cycle, written into `out`, which both calls
        share."""
        xr = np.conj(xi[r])
        z = np.multiply(xr[:, None], xr, out=out)
        z *= block(_circulant(xi))
        z *= Br
        return z

    z = cycles(xi)
    d = mu[r][:, None] + mu[r]
    d -= block(_circulant(mu))
    z, d = (z.ravel(), d.ravel()) if every else (z[m], d[m])
    np.conj(z, out=z)
    # bin d - low: the weights span a few multiples of n, so bins are few
    low = d.min(initial=0)
    d -= low
    count = np.bincount(d)
    S = (np.bincount(d, z.real, len(count))
         + 1j * np.bincount(d, z.imag, len(count)))
    ds, S = count.nonzero()[0] + low, S[count > 0]
    ds, S = ds[ds != 0], S[ds != 0]
    t = 0.0
    if len(ds):
        d0 = min(ds, key=lambda v: (abs(v), v))
        cands = ((TWO_PI * np.arange(abs(d0)) - np.angle(S[ds == d0][0]))
                 / d0) % TWO_PI
        score = (np.exp(1j * np.outer(cands, ds)) @ S).real
        # t + j*P, P = 2*pi/gcd(ds), is the same gauge: take the least of
        # them, and 0 where round-off puts t within 1e-9 * P below P
        P = TWO_PI / np.gcd.reduce(ds)
        t = float(cands[np.argmax(score)] % P)
        t = 0.0 if P - t <= 1e-9 * P else t
    xi = xi * np.exp(1j * t * mu)
    neg = (-np.arange(n)) % n
    sym = known & known[neg]
    xi[sym] = _unit(xi[sym] + np.conj(xi[neg[sym]]))

    # |z - |B|| is |conj(z) - |B||; its abs goes into the block of |B|
    mag = np.abs(B.values)
    scale = mag.max()
    z = cycles(xi)
    mag_r = block(mag)
    z -= mag_r
    resid = np.abs(z, out=mag_r)
    resid = resid if every else resid[m]
    # written so that a NaN residual fails too
    if not resid.max(initial=0.0) <= RESIDUAL_REL_TOL * scale:
        raise InconsistentBispectrumError(
            "phase propagation found contradictory cycles; the input is "
            "not a genuine bispectrum of a real nonnegative function")
    return PhaseAssignment(n, dict(zip(r.tolist(), xi[r].tolist())),
                           trace, frozenset(targets) - set(r.tolist()))


def _inverse_to_function(n: int, ghat: np.ndarray,
                         fhat0: float) -> np.ndarray:
    """The values of the function with spectrum ghat, as floats: checked
    real and not materially negative, with round-off below 0 set to 0."""
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
    return vals


def _candidates(vals: np.ndarray, deck: KDeck):
    """The candidates for the function values vals, in the order to check
    them.

    For an exact deck over the denominator N, first vals rounded to the
    lattice 1/D, D = _lattice_denominator(N): if f has the deck, N divides
    the cube of f's denominator, so D divides it, and most often is it.
    Skipped when D * vals leaves the doubles' exact integers.  Then, for
    every deck, each value's nearest fraction of denominator at most 10^9
    (CyclicFunction.from_floats), which also finds f where its denominator
    is a proper multiple of D: f = 1/2 on Z/8Z has a 3-deck of 1s, so
    D = 1, and f = (25/12, 1/6) has D = 4."""
    if deck.exact:
        D = _lattice_denominator(deck.denominator)
        if D < _FLOAT64_EXACT:
            m = np.rint(vals * D)
            if m.max(initial=0.0) < _FLOAT64_EXACT:  # false on NaN too
                # Fraction(a) skips the gcd that Fraction(a, D) takes
                yield CyclicFunction(len(vals), tuple(
                    Fraction(int(a)) if D == 1 else Fraction(int(a), D)
                    for a in m.tolist()))
    yield CyclicFunction.from_floats(vals)


def _verify_deck(cand: CyclicFunction, deck: KDeck) -> bool:
    """Does cand have this 3-deck?  Exactly for an exact deck, through the
    deck core with no budget charge; to relative 1e-8 of the deck's scale
    for a float deck."""
    if deck.exact:
        return deck_equal(_exact_deck(cand, 3), deck)
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
        canon, shift = _candidate(deck, mags, pa.xi)
        return ReconstructionReport((canon,),
                                    Uniqueness("UniqueUpToTranslation"),
                                    shift, pa.trace)

    pq = _two_primes(n)
    if pq is not None:
        p, q = pq
        if all(l % p == 0 or l % q == 0 for l in support):
            cands = _pq_family(deck, B, mags, support, p, q, pa)
            if cands is not None:
                return ReconstructionReport(
                    tuple(cands), Uniqueness("FiniteFamily", len(cands)),
                    0, pa.trace)
    return ReconstructionReport((), Uniqueness("Indeterminate"), 0, pa.trace)


def _candidate(deck: KDeck, mags: np.ndarray,
               xi: dict[int, complex]) -> tuple[CyclicFunction, int]:
    """The function whose spectrum is mags(l) xi(l) on the indices of xi
    and 0 elsewhere, as its canonical rotation and shift: the first of
    _candidates that reproduces the deck.  Raises
    InconsistentBispectrumError when it is not real, is materially negative
    or no candidate reproduces the deck."""
    n = deck.n
    ghat = np.zeros(n, dtype=np.complex128)
    l = np.fromiter(xi, dtype=np.intp, count=len(xi))
    ghat[l] = mags[l] * np.fromiter(xi.values(), dtype=np.complex128,
                                    count=len(xi))
    vals = _inverse_to_function(n, ghat, float(mags[0]))
    for cand in _candidates(vals, deck):
        if _verify_deck(cand, deck):
            return canonical_rotation(cand)
    raise InconsistentBispectrumError(
        "no candidate reproduces the input deck")


def _pq_family(deck: KDeck, B: Bispectrum, mags: np.ndarray, support,
               p: int, q: int,
               marched: PhaseAssignment) -> Optional[list[CyclicFunction]]:
    """The translation orbit of one representative, its phases marched on
    each prime subgroup of the support with a gauge of its own.  A nonzero
    multiple of p plus one of q is a multiple of neither, so no in-support
    pair across the subgroups sums into the support: each subgroup marches
    as its fold onto a prime modulus would, and by the Chinese remainder
    theorem each pair of gauges is one translation of f.  None when a
    subgroup is not reached in full or _candidate rejects the result.

    `marched` is propagate_phases over the whole support.  It reaches no
    index outside the subgroup that holds its seed s, and on that subgroup
    it makes the same steps, in the same order, as marching the subgroup
    alone, so it stands in for that march."""
    s = min(l for l in support if l)
    xi: dict[int, complex] = {}
    for m in (p, q):
        sub = {l for l in support if l % m == 0}
        pa = marched if s % m == 0 else propagate_phases(sub, B)
        if pa.unreached & sub:
            return None
        xi.update(pa.xi)
    try:
        canon, _ = _candidate(deck, mags, xi)
    except InconsistentBispectrumError:
        return None
    return _translates_pq(canon, p, q)


def _pq_shifts(p: int, q: int) -> list[int]:
    """The shifts s = j*a + l*b, j < p and l < q, in that order: a and b
    are the CRT idempotents, so s = j mod p, s = l mod q."""
    a, b = q * pow(q, -1, p), p * pow(p, -1, q)
    return [j * a + l * b for j in range(p) for l in range(q)]


def _translates_pq(f: CyclicFunction, p: int,
                   q: int) -> list[CyclicFunction]:
    """The p*q translates of f by the shifts of _pq_shifts, in that
    order."""
    return [translate(f, s) for s in _pq_shifts(p, q)]


def solutions_pq(f: CyclicFunction, p: int, q: int) -> list[CyclicFunction]:
    """The solution family of a rational f on Z/pqZ whose spectrum lives in
    the two prime subgroup supports: g_{j,l} = f_p(.-j) + f_q(.-l) for the
    p-periodic part f_p and the q-periodic part f_q of f.  By the Chinese
    remainder theorem g_{j,l} is the translate of f by the s with
    s = j mod p and s = l mod q, so the family is the p*q translates of f,
    f itself first, and all members share the exact 3-deck of f.
    """
    n = f.n
    if _two_primes(n) != tuple(sorted((p, q))):  # hence also n = p*q
        raise DomainError(f"need n = p*q with distinct primes, got "
                          f"n={n}, p={p}, q={q}")
    pattern = zero_pattern_of_poly(n, function_poly(f.values))
    allowed = {l for l in range(n) if l % p == 0 or l % q == 0}
    if not pattern.support <= allowed:
        raise DomainError(
            "spectrum support leaves the two subgroup supports: "
            f"{sorted(pattern.support - allowed)}")
    return _translates_pq(f, p, q)
