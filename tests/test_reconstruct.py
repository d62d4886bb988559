import dataclasses
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trideck as td
from trideck.cli import EXIT_DOMAIN, main
from trideck.cyclic import Bispectrum
from trideck.cyclotomic import _factorize, function_poly, zero_pattern_of_poly
from trideck.errors import DomainError, InconsistentBispectrumError
from trideck import reconstruct
from trideck.reconstruct import (PhaseAssignment, _candidate, _pq_shifts,
                                 _translates_pq)


def _rounded(f):
    return td.CyclicFunction.of([round(float(v)) for v in f.values])


def _no_spectral_zeros(f):
    pat = zero_pattern_of_poly(f.n, function_poly(f.n, f.values))
    return not pat.zeros


def _split_function(u, v):
    """f(j) = u(j mod p) + v(j mod q) on Z/pqZ, p = len(u), q = len(v)."""
    p, q = len(u), len(v)
    return td.CyclicFunction(p * q, tuple(Fraction(u[j % p]) + v[j % q]
                                          for j in range(p * q)))


SEEDED_PQ = [(2, 5), (2, 7), (3, 7), (5, 7), (7, 11)]


def _seeded_split_function(p, q):
    """A split function on Z/pqZ with nonconstant parts drawn from seed
    p*q."""
    rng = np.random.default_rng(p * q)
    parts = []
    for period in (p, q):
        u = rng.integers(0, 10, period)
        while u.min() == u.max():
            u = rng.integers(0, 10, period)
        parts.append(u.tolist())
    return _split_function(*parts)


def _averaging_family(f, p, q):
    """The family built from averaged parts: f_p and f_q are the averages
    of f over shifts by p and by q, each less half the mean, and member
    (j, l) is f_p(.-j) + f_q(.-l)."""
    n = f.n
    half = sum(f.values) / (2 * n)
    f_p = td.CyclicFunction(n, tuple(
        sum(f.values[(j + m * p) % n] for m in range(q)) / q - half
        for j in range(n)))
    f_q = td.CyclicFunction(n, tuple(
        sum(f.values[(j + m * q) % n] for m in range(p)) / p - half
        for j in range(n)))
    return [td.CyclicFunction(n, tuple(
        a + b for a, b in zip(td.translate(f_p, j).values,
                              td.translate(f_q, l).values)))
        for j in range(p) for l in range(q)]


def _negation_closed_supports(n):
    """Every subset of Z/nZ that contains 0 and is closed under l -> -l."""
    orbits = sorted({frozenset({l, n - l}) for l in range(1, n)}, key=min)
    for pick in itertools.product((False, True), repeat=len(orbits)):
        yield frozenset({0}).union(*(o for o, p in zip(orbits, pick) if p))


def _closure(n, support):
    """The indices breadth-first closure reaches from 0 and the least
    nonzero support index: a support index is added when it is the sum of
    two reached ones, until nothing changes."""
    reached = {0} | set(sorted(support - {0})[:1])
    while True:
        grown = reached | {(a + b) % n for a in reached
                           for b in reached} & support
        if grown == reached:
            return reached
        reached = grown


def _bispectrum_on(n, support, rng):
    """The bispectrum of a real signal whose spectrum has random magnitudes
    and phases on `support` and is zero elsewhere."""
    fh = np.zeros(n, dtype=complex)
    for l in sorted(support):  # negation closed, so n - l comes first
        if 2 * l > n:
            fh[l] = np.conj(fh[n - l])
        elif l == 0:
            fh[l] = rng.uniform(0.5, 2)
        elif 2 * l == n:
            fh[l] = rng.choice([-1, 1]) * rng.uniform(0.5, 2)
        else:
            fh[l] = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.random())
    l = np.arange(n)
    return Bispectrum(n, fh[:, None] * fh[None, :]
                      * fh[(-l[:, None] - l[None, :]) % n])


def _noisy_deck(level):
    """The fixed n = 64 function with values 1..7 drawn from seed 64, and
    its 3-deck plus relative noise `level` averaged over the deck's six
    symmetries."""
    n = 64
    rng = np.random.default_rng(64)
    f = td.CyclicFunction.of([int(v) for v in rng.integers(1, 8, n)])
    N = td.k_deck(f, 3).as_floats()
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    E = rng.standard_normal(N.shape)
    E = sum(E[x % n, y % n] for x, y in [(a, b), (b, a), (-a, b - a),
                                         (b - a, -a), (-b, a - b),
                                         (a - b, -b)]) / 6
    return f, td.KDeck(n, 3, N + level * np.max(np.abs(N)) * E)


def _reference_unit(z):
    """z / |z| as an array division, which a numpy-scalar z / abs(z) does
    not match in the last bit."""
    r = np.abs(z)
    return z / np.where(r > 0, r, 1.0)


def _reference_propagate_phases(support, B):
    """propagate_phases in its per-target indexing form, kept as the bit
    for bit reference: each target builds its partner row with (l - idx) %
    n, masks it and sums with np.sum, and the gauge stage bins masked index
    copies with np.unique.  The library version must give the same floats,
    trace, unreached set and errors."""
    n = B.n
    if hasattr(support, "support"):
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
    trace = []
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
            same = w == w[0]
            a, b = l1[same], l2[same]
            xi[l] = _reference_unit(np.sum(xi[a] * xi[b] * Bc[a, b]))
            mu[l], known[l] = w[0], True
            trace.append({"target": l, "via": [int(l1[0]), int(l2[0])]})
            changed = True
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
        cands = ((2 * np.pi * np.arange(abs(d0)) - np.angle(S[ds == d0][0]))
                 / d0) % (2 * np.pi)
        score = (np.exp(1j * np.outer(cands, ds)) @ S).real
        t = float(cands[np.argmax(score)] % (2 * np.pi / np.gcd.reduce(ds)))
    xi = xi * np.exp(1j * t * mu)
    neg = (-idx) % n
    sym = known & known[neg]
    xi[sym] = _reference_unit(xi[sym] + np.conj(xi[neg[sym]]))
    resid = np.abs(xi[l1] * xi[l2] * np.conj(xi[l3]) * Bm - np.abs(Bm))
    if not resid.max(initial=0.0) <= 1e-6 * np.abs(Bc).max():
        raise InconsistentBispectrumError(
            "phase propagation found contradictory cycles; the input is "
            "not a genuine bispectrum of a real nonnegative function")
    return PhaseAssignment(n, {int(l): complex(xi[l]) for l in r},
                           tuple(trace), frozenset(targets) - set(r.tolist()))


def _reference_pq_family(deck, B, mags, support, p, q):
    """The pq family with each prime subgroup marched on its own by the
    reference marching."""
    xi = {}
    for m in (p, q):
        pa = _reference_propagate_phases(
            {l for l in support if l % m == 0}, B)
        if pa.unreached:
            return None
        xi.update(pa.xi)
    try:
        canon, _ = _candidate(deck, mags, xi)
    except InconsistentBispectrumError:
        return None
    return _translates_pq(canon, p, q)


def _bit_outcome(propagate, support, B):
    """Everything propagate_phases returns or raises, floats as hex."""
    try:
        with np.errstate(all="ignore"):
            pa = propagate(support, B)
    except InconsistentBispectrumError as e:
        return type(e), str(e)
    return ({l: (x.real.hex(), x.imag.hex()) for l, x in pa.xi.items()},
            pa.trace, pa.unreached)


def _marching_corpus(n):
    """(support, B) pairs at modulus n: values 1..7, 0/1 and sparse values
    up to 1000, each from the exact and the transform deck, with 1e-9
    symmetrised noise and with one corrupted entry; the support is the
    magnitudes' support and, for n = pq, each prime subgroup of it.  Then
    random spectra on sparse negation-closed supports, which reach targets
    in later passes and through pairs of more than one weight when they
    leave out the least indices, and a
    bispectrum with a NaN and one with an infinite entry."""
    rng = np.random.default_rng(n)
    fact = _factorize(n)
    primes = sorted(fact) if len(fact) == 2 and set(fact.values()) == {1} \
        else []
    sparse = np.zeros(n, dtype=np.int64)
    picks = rng.choice(n, max(2, n // 6), replace=False)
    sparse[picks] = rng.integers(1, 1001, len(picks))
    funcs = [rng.integers(1, 8, n), rng.integers(0, 2, n), sparse]
    if primes:
        p, q = primes
        funcs.append(np.array([j % p + 2 * (j % q == 1) for j in range(n)]))
    for v in funcs:
        f = td.CyclicFunction.of([int(x) for x in v])
        N = td.k_deck(f, 3).as_floats()
        a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        E = rng.standard_normal(N.shape)
        E = sum(E[x % n, y % n] for x, y in [(a, b), (b, a), (-a, b - a),
                                             (b - a, -a), (-b, a - b),
                                             (a - b, -b)]) / 6
        noisy = td.KDeck(n, 3, N + 1e-9 * np.max(np.abs(N)) * E)
        for deck in (td.k_deck(f, 3), td.three_deck_fft(f), noisy):
            B = td.bispectrum_from_deck(deck)
            mags = td.magnitudes_from_bispectrum(B)
            support = {l for l in range(n) if mags[l] > 1e-8 * mags[0]}
            yield support, B
            for m in primes:
                yield {l for l in support if l % m == 0}, B
            bad = B.values.copy()
            i, j = rng.integers(0, n, 2)
            bad[i, j] *= np.exp(0.3j)
            yield support, Bispectrum(n, bad)
    for low in (1, 2, 2, 3, 3):
        support = {0}
        for l in range(low, n // 2 + 1):
            if rng.random() < 0.7:
                support |= {l, n - l}
        yield support, _bispectrum_on(n, support, rng)
    B = td.bispectrum_from_deck(td.three_deck_fft(f)).values.copy()
    for x in (np.nan, np.inf):
        bad = B.copy()
        bad[1, 2] = x
        yield set(range(n)), Bispectrum(n, bad)


class TestMagnitudes:
    def test_delta(self):
        B = td.bispectrum(td.CyclicFunction.indicator(4, [0]))
        assert np.allclose(td.magnitudes_from_bispectrum(B), 1.0)

    def test_constant(self):
        B = td.bispectrum(td.CyclicFunction.of([1, 1, 1, 1]))
        assert np.allclose(td.magnitudes_from_bispectrum(B), [4, 0, 0, 0])

    def test_spec_example(self):
        B = td.bispectrum(td.CyclicFunction.of([2, 1, 0]))
        mags = td.magnitudes_from_bispectrum(B)
        assert mags[0] == pytest.approx(3.0)
        assert mags[1] == mags[2] == pytest.approx(np.sqrt(3.0))

    def test_zero_function(self):
        B = td.bispectrum(td.CyclicFunction.of([0, 0, 0]))
        assert np.all(td.magnitudes_from_bispectrum(B) == 0)

    def test_inconsistent_diagonal_rejected(self):
        n = 4
        vals = np.zeros((n, n), dtype=complex)
        vals[1, 3] = 5.0  # B(l,-l) != 0 while B(0,0) = 0
        with pytest.raises(InconsistentBispectrumError):
            td.magnitudes_from_bispectrum(Bispectrum(n, vals))

    def test_negative_diagonal_rejected(self):
        B = td.bispectrum(td.CyclicFunction.of([2, 1, 0]))
        bad = B.values.copy()
        bad[1, 2] = -9.0
        with pytest.raises(InconsistentBispectrumError):
            td.magnitudes_from_bispectrum(Bispectrum(3, bad))


class TestPropagation:
    def test_full_support_reaches_everything(self):
        f = td.CyclicFunction.of([3, 1, 0, 2, 1])
        pa = td.propagate_phases(range(5), td.bispectrum(f))
        assert not pa.unreached
        assert pa.xi[0] == pytest.approx(1.0)

    def test_gap_support_bridged(self):
        # zeros {3,6} on Z/9: 4 = 2+2, 7 = 5+2 keep the graph connected
        f = td.CyclicFunction.indicator(9, [0, 1, 2])
        pat = td.zero_set(9, {0, 1, 2})
        pa = td.propagate_phases(pat, td.bispectrum(f))
        assert not pa.unreached

    def test_split_support_flags_unreached(self):
        f = td.CyclicFunction.of([1, 1, 0, 2, 0, 1])
        pat = zero_pattern_of_poly(6, function_poly(6, f.values))
        pa = td.propagate_phases(pat, td.bispectrum(f))
        assert pa.unreached  # the two subgroup components cannot link up

    def test_conjugate_symmetry(self):
        f = td.CyclicFunction.of([3, 1, 0, 2, 1, 0, 1])
        pa = td.propagate_phases(range(7), td.bispectrum(f))
        for l in range(1, 7):
            assert pa.xi[l] * pa.xi[7 - l] == pytest.approx(1.0, abs=1e-8)

    def test_trace_deterministic(self):
        f = td.CyclicFunction.of([3, 1, 0, 2, 1])
        B = td.bispectrum(f)
        t1 = td.propagate_phases(range(5), B).trace
        t2 = td.propagate_phases(range(5), B).trace
        assert t1 == t2

    def test_corrupt_bispectrum_detected(self):
        f = td.CyclicFunction.of([3, 1, 0, 2, 1])
        bad = td.bispectrum(f).values.copy()
        bad[1, 1] *= np.exp(0.3j)  # break one cycle constraint
        with pytest.raises(InconsistentBispectrumError):
            td.propagate_phases(range(5), Bispectrum(5, bad))

    def test_reach_matches_closure_oracle(self):
        rng = np.random.default_rng(12)
        split = []
        for n in range(1, 13):
            for support in _negation_closed_supports(n):
                pa = td.propagate_phases(support,
                                         _bispectrum_on(n, support, rng))
                assert pa.unreached == support - _closure(n, support)
                if pa.unreached:
                    split.append((n, support))
        # the split pq supports are among them
        assert (6, frozenset({0, 2, 3, 4})) in split
        assert (10, frozenset({0, 2, 4, 5, 6, 8})) in split

    @given(st.integers(3, 16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_fundznz_on_reconstruction_ratio(self, n, data):
        vals = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        f = td.CyclicFunction.of(vals)
        if not _no_spectral_zeros(f):
            return
        rep = td.reconstruct_from_deck(td.k_deck(f, 3))
        g = rep.candidates[0]
        fh, gh = td.dft(f).values, td.dft(g).values
        xi = gh / fh
        assert np.allclose(np.abs(xi), 1.0, atol=1e-6)
        for l1 in range(n):
            for l2 in range(n):
                assert xi[(l1 + l2) % n] == pytest.approx(
                    xi[l1] * xi[l2], abs=1e-6)


    @pytest.mark.parametrize("n", [12, 15, 30, 32, 35, 60, 64, 77, 96,
                                   128])
    def test_bit_identical_to_the_reference(self, n):
        outcomes = set()
        for support, B in _marching_corpus(n):
            want = _bit_outcome(_reference_propagate_phases, support, B)
            assert _bit_outcome(td.propagate_phases, support, B) == want
            outcomes.add(type(want[0]))
        assert outcomes == {dict, type}  # both results and errors compared


    def test_bit_identical_to_the_reference_small_moduli(self):
        """At n = 1..12: every negation-closed support containing 0; every
        run {a, ..., b} of nonzero indices, with and without 0; and seeded
        supports that are not negation-closed or leave out 0.  The spectrum
        is random on 0 and the support closed under negation.  Of all
        supports below n = 13, only six have a target with pairs of two
        weights, all at n = 11, and four of them are runs."""
        rng = np.random.default_rng(112)
        for n in range(1, 13):
            supports = list(_negation_closed_supports(n))
            supports += [frozenset(range(a, b)) | zero
                         for a in range(1, n) for b in range(a + 1, n + 1)
                         for zero in (frozenset(), frozenset({0}))]
            for _ in range(16):
                s = frozenset(np.flatnonzero(rng.random(n) < 0.6).tolist())
                while 0 in s and s == {-l % n for l in s}:
                    s = frozenset(
                        np.flatnonzero(rng.random(n) < 0.6).tolist())
                supports.append(s)
            for support in supports:
                # the spectrum lives on 0 and the support closed under
                # negation, so every pair of support indices has B != 0
                B = _bispectrum_on(n, {0} | support | {-l % n
                                                       for l in support},
                                   rng)
                want = _bit_outcome(_reference_propagate_phases, support, B)
                got = _bit_outcome(td.propagate_phases, support, B)
                assert got == want, (n, sorted(support))


class TestReconstructFromDeck:
    def test_spec_example(self):
        f = td.CyclicFunction.of([2, 1, 0])
        rep = td.reconstruct_from_deck(td.k_deck(f, 3))
        assert rep.uniqueness.kind == "UniqueUpToTranslation"
        assert td.equal_up_to_translation(f, _rounded(rep.candidates[0])) \
            is not None

    def test_constant(self):
        f = td.CyclicFunction.of([3, 3, 3, 3])
        rep = td.reconstruct_from_deck(td.k_deck(f, 3))
        assert rep.candidates[0] == f

    def test_zero_function(self):
        f = td.CyclicFunction.of([0] * 5)
        rep = td.reconstruct_from_deck(td.k_deck(f, 3))
        assert rep.candidates[0] == f

    def test_prime_power_indicator(self):
        f = td.CyclicFunction.indicator(9, [0, 1, 2])
        rep = td.reconstruct_from_deck(td.k_deck(f, 3))
        assert rep.uniqueness.kind == "UniqueUpToTranslation"
        assert td.equal_up_to_translation(f, _rounded(rep.candidates[0])) \
            is not None

    def test_pq_finite_family(self):
        self._check_pq_family(td.CyclicFunction.of([1, 1, 0, 2, 0, 1]))

    def test_pq_finite_family_n35(self):
        self._check_pq_family(
            _split_function([0, 3, 1, 1, 2], [1, 4, 2, 2, 1, 3, 1]))

    @pytest.mark.parametrize("p, q", SEEDED_PQ)
    def test_pq_finite_family_seeded(self, p, q):
        self._check_pq_family(_seeded_split_function(p, q))

    @pytest.mark.parametrize("p, q", SEEDED_PQ)
    def test_pq_family_marches_each_subgroup_once(self, p, q, monkeypatch):
        # the march over the whole support stands in for the subgroup
        # that holds its seed; the family is the reference's bit for bit
        f = _seeded_split_function(p, q)
        march = reconstruct.propagate_phases
        calls = []
        monkeypatch.setattr(reconstruct, "propagate_phases",
                            lambda *args: calls.append(args) or march(*args))
        for deck in (td.k_deck(f, 3), td.three_deck_fft(f)):
            calls.clear()
            rep = td.reconstruct_from_deck(deck)
            assert len(calls) == 2
            B = td.bispectrum_from_deck(deck)
            mags = td.magnitudes_from_bispectrum(B)
            support = {l for l in range(f.n) if mags[l] > 1e-8 * mags[0]}
            assert rep.candidates == tuple(
                _reference_pq_family(deck, B, mags, support, p, q))

    @staticmethod
    def _check_pq_family(f):
        """The family is the translation orbit of f, canonical rotation
        first, every member with exactly the input deck; a float deck of f
        gives the same set."""
        n = f.n
        deck = td.k_deck(f, 3)
        rep = td.reconstruct_from_deck(deck)
        assert rep.uniqueness.kind == "FiniteFamily"
        assert rep.uniqueness.count == len(rep.candidates) == n
        orbit = {td.translate(f, k) for k in range(n)}
        assert set(rep.candidates) == orbit
        assert rep.candidates[0] == td.canonical_rotation(f)[0]
        for cand in rep.candidates:
            assert td.deck_equal(td.k_deck(cand, 3), deck)
        float_rep = td.reconstruct_from_deck(td.three_deck_fft(f))
        assert float_rep.uniqueness == rep.uniqueness
        assert set(float_rep.candidates) == orbit

    def test_pq_fold_with_spectral_gap_is_indeterminate(self):
        # the 5-periodic part 1 + cos(2 pi j/5)/2 has fhat(2) = 0, so its
        # deck leaves the phase of fhat(1) free and every phase gives the
        # same deck; the report says Indeterminate instead of raising
        g = [1 + 0.5 * np.cos(2 * np.pi * j / 5) for j in range(5)]
        f = td.CyclicFunction.of(
            [g[j % 5] + (0, 2, 1)[j % 3] for j in range(15)])
        rep = td.reconstruct_from_deck(td.three_deck_fft(f))
        assert rep.uniqueness.kind == "Indeterminate"

    def test_pq_family_from_int64_deck_whose_folds_pass_2_63(self):
        # n * max^3 < 2^62 keeps the deck int64, but each fold entry sums
        # 9 or 25 entries and the folds total (sum f)^3 > 2^63
        f = _split_function([0, 300000, 600000], [0, 12345, 50000, 31, 27777])
        deck = td.k_deck(f, 3)
        assert deck.values.dtype == np.int64
        assert sum(f.values) ** 3 > 2**63
        rep = td.reconstruct_from_deck(deck)
        assert rep.uniqueness == td.Uniqueness("FiniteFamily", 15)
        assert {_rounded(c) for c in rep.candidates} == \
            {td.translate(f, k) for k in range(15)}
        assert max(v.denominator for c in rep.candidates
                   for v in c.values) <= 10**9

    def test_pq_deck_changed_off_the_subgroups_is_indeterminate(self):
        # (3, 5) and its images pair a multiple of 3 with a multiple of 5,
        # so the magnitudes and both subgroups' marching are unchanged;
        # only the deck check sees the change
        f = _split_function([0, 2, 1], [1, 4, 0, 2, 2])
        B = td.bispectrum_from_deck(td.three_deck_fft(f)).values.copy()
        delta = 1e-3 * np.abs(B).max()
        for l1, l2 in ((3, 5), (-3, -5)):
            for a, b in itertools.permutations((l1, l2, -l1 - l2), 2):
                B[a % 15, b % 15] += delta
        deck = td.KDeck(15, 3, np.real(np.fft.fft2(B)) / 15**2)
        assert td.reconstruct_from_deck(td.three_deck_fft(f)).uniqueness \
            == td.Uniqueness("FiniteFamily", 15)
        rep = td.reconstruct_from_deck(deck)
        assert rep.uniqueness == td.Uniqueness("Indeterminate")
        assert rep.candidates == ()

    def test_pq_float_deck_with_zeros_and_large_denominators(self):
        # the inverse transform carries round-off of either sign where f
        # is 0
        f = _split_function(
            [Fraction(v, 10**11) for v in (0, 36670303151, 38389463117)],
            [Fraction(v, 10**11) for v in (87359795345, 0, 38534708846,
                                           32129023457, 86512874764)])
        assert 0 in f.values
        rep = td.reconstruct_from_deck(td.three_deck_fft(f))
        assert rep.uniqueness == td.Uniqueness("FiniteFamily", 15)
        orbit = [td.translate(f, k).as_floats() for k in range(15)]
        shifts = set()
        for c in rep.candidates:
            assert min(c.values) >= 0
            shifts |= {k for k in range(15)
                       if np.allclose(c.as_floats(), orbit[k], rtol=0,
                                      atol=1e-9)}
        assert shifts == set(range(15))

    def test_verification_ignores_the_compute_budget(self, monkeypatch):
        decks = [td.k_deck(f, 3) for f in (td.CyclicFunction.of([2, 1, 0]),
                                           td.CyclicFunction.of([1, 1, 0, 2,
                                                                 0, 1]))]
        monkeypatch.setenv("TRIDECK_BUDGET", "10")
        for deck in decks:
            assert td.reconstruct_from_deck(deck).candidates

    def test_integer_input_n256_is_an_exact_rotation(self):
        rng = np.random.default_rng(256)
        f = td.CyclicFunction.of([int(v) for v in rng.integers(1, 8, 256)])
        rep = td.reconstruct_from_deck(td.k_deck(f, 3))
        assert rep.uniqueness.kind == "UniqueUpToTranslation"
        assert td.equal_up_to_translation(f, rep.candidates[0]) is not None

    def test_gauge_shift_recorded(self):
        f = td.CyclicFunction.of([0, 0, 5, 1])
        rep = td.reconstruct_from_deck(td.k_deck(f, 3))
        cand = _rounded(rep.candidates[0])
        assert cand == td.canonical_rotation(cand)[0]  # canonical output

    @pytest.mark.parametrize("pos, x", [((0, 0), np.inf), ((1, 2), np.nan)])
    def test_non_finite_float_deck_rejected(self, pos, x):
        # inf gave the zero function and NaN "contradictory cycles"
        f = td.CyclicFunction.of(list(range(1, 8)))
        v = td.three_deck_fft(f).values.copy()
        v[pos] = x
        with pytest.raises(DomainError, match="finite"):
            td.reconstruct_from_deck(td.KDeck(7, 3, v))

    def test_requires_three_deck(self):
        with pytest.raises(DomainError):
            td.reconstruct_from_deck(td.k_deck(td.CyclicFunction.of([1, 2]),
                                               2))

    def test_report_json(self):
        rep = td.reconstruct_from_deck(
            td.k_deck(td.CyclicFunction.of([2, 1, 0]), 3))
        d = rep.to_json_dict()
        assert d["uniqueness"]["kind"] == "UniqueUpToTranslation"
        assert all(set(t) == {"target", "via"} for t in d["trace"])


def _plain_text(rep):
    return json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n"


def _report_corpus():
    """Reports of every kind, from exact and float decks: unique, pq
    families, Indeterminate, the zero function (no trace), and integer and
    rational values."""
    rng = np.random.default_rng(21)
    fs = [td.CyclicFunction.of([int(v) for v in rng.integers(1, 8, n)])
          for n in (1, 2, 7, 32)]
    fs.append(td.CyclicFunction.of(
        [Fraction(int(a), int(b))
         for a, b in zip(rng.integers(0, 5, 12), rng.integers(1, 7, 12))]))
    fs += [_seeded_split_function(p, q) for p, q in SEEDED_PQ]
    fs.append(_split_function([0, Fraction(1, 2), 2],
                              [Fraction(1, 3), 1, 0, 2, Fraction(5, 4)]))
    # antipodal: f equals its translate by 6
    fs.append(td.CyclicFunction.indicator(12, [0, 1, 2, 6, 7, 8]))
    fs.append(td.CyclicFunction.of([0] * 6))
    reps = []
    for f in fs:
        for deck in (td.k_deck(f, 3), td.three_deck_fft(f)):
            reps.append(td.reconstruct_from_deck(deck))
    return reps


class TestReportText:
    """to_json() is the plain encoding of to_json_dict(), byte for byte."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return _report_corpus()

    def test_corpus_covers_every_case(self, corpus):
        kinds = {r.uniqueness.kind for r in corpus}
        assert kinds == {"UniqueUpToTranslation", "FiniteFamily",
                         "Indeterminate"}
        assert any(not r.trace and r.candidates for r in corpus)
        tokens = [v for r in corpus for c in r.candidates for v in c.values]
        assert {v.denominator == 1 for v in tokens} == {True, False}

    def test_bytes_match_plain_encoding(self, corpus):
        for rep in corpus:
            assert rep.to_json() == _plain_text(rep)

    @given(st.integers(3, 16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_plain_encoding_fuzz(self, n, data):
        vals = data.draw(st.lists(st.sampled_from(
            [0, 1, 2, 5, Fraction(1, 2), Fraction(7, 3)]),
            min_size=n, max_size=n))
        f = td.CyclicFunction.of(vals)
        for deck in (td.k_deck(f, 3), td.three_deck_fft(f)):
            try:
                rep = td.reconstruct_from_deck(deck)
            except InconsistentBispectrumError:
                continue
            assert rep.to_json() == _plain_text(rep)

    @pytest.mark.parametrize("p, q", SEEDED_PQ)
    def test_family_members_are_the_shifts_of_member_0(self, p, q):
        rep = td.reconstruct_from_deck(
            td.k_deck(_seeded_split_function(p, q), 3))
        first = rep.candidates[0]
        assert list(rep.candidates) == [td.translate(first, s)
                                        for s in _pq_shifts(p, q)]

    def test_members_out_of_order_are_formatted_on_their_own(self):
        rep = td.reconstruct_from_deck(
            td.k_deck(_seeded_split_function(5, 7), 3))
        members = list(rep.candidates)
        stranger = td.CyclicFunction.of([1] * 35)
        orders = [members[::-1], members[1:] + members[:1],
                  members[:1] + members[2:] + members[1:2],
                  members[:-1] + [stranger]]
        for cands in orders:
            hand = dataclasses.replace(rep, candidates=tuple(cands))
            assert hand.to_json() == _plain_text(hand)
            assert json.loads(hand.to_json())["candidates"] == [
                c.to_json_dict() for c in cands]


class TestNoisyDeck:
    @pytest.mark.parametrize("level", [1e-12, 1e-9])
    def test_reconstructs_near_a_rotation(self, level):
        f, deck = _noisy_deck(level)
        rep = td.reconstruct_from_deck(deck)
        assert rep.uniqueness.kind == "UniqueUpToTranslation"
        want, got = f.as_floats(), rep.candidates[0].as_floats()
        dist = min(np.max(np.abs(np.roll(got, s) - want))
                   for s in range(f.n)) / np.max(want)
        assert dist <= 1e-6

    def test_too_much_noise_is_rejected(self):
        with pytest.raises(InconsistentBispectrumError):
            td.reconstruct_from_deck(_noisy_deck(1e-6)[1])

    def test_too_much_noise_exits_1_through_the_cli(self, capsys, tmp_path):
        deck = _noisy_deck(1e-6)[1]
        p = tmp_path / "deck.json"
        p.write_text(json.dumps({"n": deck.n, "k": 3, "values":
                                 deck.values.reshape(-1).tolist()}))
        code = main(["reconstruct", "--deck", str(p)])
        out, err = capsys.readouterr()
        assert code == EXIT_DOMAIN and out == ""
        assert "Traceback" not in err and "deck" in err


class TestSolutionsPq:
    def test_worked_example(self):
        f = td.CyclicFunction.of([1, 1, 0, 2, 0, 1])
        sols = td.solutions_pq(f, 3, 2)
        assert len(sols) == 6
        deck = td.k_deck(f, 3)
        shifts = set()
        for g in sols:
            assert td.deck_equal(td.k_deck(g, 3), deck)
            shifts.add(td.equal_up_to_translation(f, g))
        # here the family is exactly the translation orbit of f
        assert shifts == set(range(6))

    def test_periodic_input_degenerates_to_translates(self):
        f = td.CyclicFunction.of([2, 0, 1, 2, 0, 1])  # already 3-periodic
        for g in td.solutions_pq(f, 3, 2):
            assert td.equal_up_to_translation(f, g) is not None

    def test_constant_single_orbit(self):
        f = td.CyclicFunction.of([2] * 6)
        assert all(g == f for g in td.solutions_pq(f, 3, 2))

    def test_precondition_support(self):
        f = td.CyclicFunction.indicator(6, [0, 1])  # full spectral support
        with pytest.raises(DomainError):
            td.solutions_pq(f, 3, 2)

    def test_parameter_validation(self):
        f = td.CyclicFunction.of([1] * 6)
        with pytest.raises(DomainError):
            td.solutions_pq(f, 4, 2)
        with pytest.raises(DomainError):
            td.solutions_pq(f, 2, 2)
        with pytest.raises(DomainError):
            td.solutions_pq(f, 5, 2)

    def test_pairwise_decks_exactly_equal(self):
        # n=15 = 3*5; build a valid split input from periodic parts
        p, q = 3, 5
        n = 15
        a = td.CyclicFunction.of([j % 3 for j in range(n)])       # 3-periodic
        b = td.CyclicFunction.of([1 if j % 5 == 0 else 0
                                  for j in range(n)])             # 5-periodic
        f = td.CyclicFunction.of([x + y for x, y in
                                  zip(a.values, b.values)])
        sols = td.solutions_pq(f, p, q)
        assert len(sols) == 15
        decks = [td.k_deck(g, 3) for g in sols]
        for d in decks[1:]:
            assert td.deck_equal(decks[0], d)


    @pytest.mark.parametrize("p,q", [(3, 2), (3, 5), (5, 7), (7, 11)])
    def test_equals_averaging_construction(self, p, q):
        rng = np.random.default_rng(1000 * p + q)
        for trial in range(6):
            lo = -4 if trial % 2 else 0  # odd trials have signed parts
            u = [int(x) for x in rng.integers(lo, 5, p)]
            v = [Fraction(int(x), int(d)) for x, d in
                 zip(rng.integers(lo, 5, q), rng.choice([1, 2, 3], q))]
            if trial == 4:
                u = [2] * p  # constant p-periodic part
            f = _split_function(u, v)
            assert td.solutions_pq(f, p, q) == _averaging_family(f, p, q)


class TestRoundtrip:
    @given(st.integers(3, 24), st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_nonvanishing(self, n, data):
        vals = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        f = td.CyclicFunction.of(vals)
        if not _no_spectral_zeros(f):
            return
        rep = td.reconstruct_from_deck(td.k_deck(f, 3))
        assert rep.uniqueness.kind == "UniqueUpToTranslation"
        r = _rounded(rep.candidates[0])
        assert td.equal_up_to_translation(f, r) is not None
