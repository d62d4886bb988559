import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import trideck as td
from trideck import determinacy
from trideck.cyclotomic import cyclotomic
from trideck.determinacy import (_least_in_orbit, _orbit_reps, _rotate,
                                 _wilson)
from trideck.errors import BudgetError, DomainError


def _trim(c):
    end = len(c)
    while end and c[end - 1] == 0:
        end -= 1
    return tuple(c[:end])


def poly_divmod(a, b):
    """Schoolbook division of a by b, whose leading coefficient is 1 or -1:
    (quotient, remainder), each without high zero coefficients."""
    rem, quot = list(a), [0] * max(len(a) - len(b) + 1, 0)
    for deg in range(len(quot) - 1, -1, -1):
        quot[deg] = coef = rem[deg + len(b) - 1] * b[-1]
        for j, bj in enumerate(b):
            rem[deg + j] -= coef * bj
    return _trim(quot), _trim(rem[:len(b) - 1])


def _rotations(mask, n):
    full = (1 << n) - 1
    return [((mask << r) | (mask >> (n - r))) & full for r in range(n)]


def _sweep_by_loop(n, k):
    """The sweep as a reference: the least rotation of every mask by loop,
    then the exact k_deck of each set, grouped by deck."""
    reps = sorted({min(_rotations(m, n)) for m in range(1 << n)})
    classes = {}
    for mask in reps:
        subset = tuple(j for j in range(n) if mask >> j & 1)
        deck = td.k_deck(td.CyclicFunction.indicator(n, subset), k)
        classes.setdefault(deck.values.tobytes(), []).append(subset)
    ambiguous = sorted(tuple(sorted(c)) for c in classes.values()
                       if len(c) >= 2)
    return td.DeterminacyReport(
        n, k, 1 << n, tuple(ambiguous),
        {"orbit_reps": len(reps), "deck_classes": len(classes)})


def _hash_by_columns(reps, n, k):
    """The stage-1 hash as a reference: for each offset tuple with
    a_1 < 3, in lexicographic order, the deck entry column of every mask,
    folded in as h <- h * P + entry mod 2^64."""
    h = np.zeros(len(reps), dtype=np.uint64)
    for offset in itertools.combinations_with_replacement(range(n), k - 1):
        if offset[0] < 3:
            acc = reps
            for a in offset:
                acc = acc & (_rotate(reps, n, a) if a else reps)
            h = h * determinacy._HASH_P + np.bitwise_count(acc)
    return h


def _burnside(n):
    phi = [sum(math.gcd(d, j) == 1 for j in range(1, d + 1))
           for d in range(n + 1)]
    return sum(phi[d] * 2 ** (n // d) for d in range(1, n + 1)
               if n % d == 0) // n


def _zero_by_divisor(bits, n):
    """Whether each 0/1 row has a spectral zero, by one int64 product per
    divisor d > 1 of n: Phi_d | P_E exactly when bits @ M_d == 0, M_d
    holding the residues of x^j mod Phi_d."""
    has_zero = np.zeros(len(bits), dtype=bool)
    for d in range(2, n + 1):
        if n % d == 0:
            phi = cyclotomic(d)
            M = np.zeros((n, len(phi) - 1), dtype=np.int64)
            row = (1,)
            for j in range(n):
                M[j, :len(row)] = row
                row = poly_divmod((0,) + row, phi)[1]
            has_zero |= np.all(bits @ M == 0, axis=1)
    return has_zero


@functools.cache
def _exhaustive_hits_by_divisor(n):
    """The orbit-weighted count of sets with a spectral zero, by the
    divisor check on every orbit's least mask at once."""
    reps = _orbit_reps(n)
    size = np.full(len(reps), n)
    for a in range(n - 1, 0, -1):
        if n % a == 0:
            size[_rotate(reps, n, a) == reps] = a
    bits = (reps[:, None] >> np.arange(n, dtype=reps.dtype)) & 1
    return int(size[_zero_by_divisor(bits.astype(np.int64), n)].sum())


@functools.cache
def _sampled_hits_by_divisor(n, samples, seed):
    """The sampled count by the divisor check, on the survey's draws: rows
    of n bits from Philox(seed), 2^14 rows a draw."""
    rng = np.random.Generator(np.random.Philox(seed))
    hits = 0
    for done in range(0, samples, 1 << 14):
        m = min(samples - done, 1 << 14)
        bits = rng.integers(0, 2, size=(m, n), dtype=np.int64)
        hits += int(_zero_by_divisor(bits, n).sum())
    return hits


class TestExhaustive:
    def test_prime_modulus_unique(self):
        rep = td.exhaustive_determinacy(7, 3)
        assert rep.total_sets == 128
        assert rep.ambiguous_classes == ()

    def test_prime_power_unique(self):
        assert td.exhaustive_determinacy(9, 3).ambiguous_classes == ()

    def test_two_deck_is_weaker(self):
        # reflection pairs split 3-decks but not 2-decks
        rep2 = td.exhaustive_determinacy(8, 2)
        assert len(rep2.ambiguous_classes) > 0

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("TRIDECK_BUDGET", "100")
        with pytest.raises(BudgetError):
            td.exhaustive_determinacy(7, 3)

    def test_class_members_verified(self):
        rep = td.exhaustive_determinacy(8, 2)
        for cls in rep.ambiguous_classes:
            decks = [td.k_deck(td.CyclicFunction.indicator(8, s), 2)
                     for s in cls]
            for d in decks[1:]:
                assert td.deck_equal(decks[0], d)
            fs = [td.CyclicFunction.indicator(8, s) for s in cls]
            for i, f in enumerate(fs):
                for g in fs[i + 1:]:
                    assert td.equal_up_to_translation(f, g) is None

    @pytest.mark.parametrize("n", range(1, 21))
    def test_orbit_reps_are_the_necklaces(self, n):
        reps = _orbit_reps(n).tolist()
        assert len(reps) == _burnside(n)
        assert reps == sorted(reps)
        assert all(m == min(_rotations(m, n)) for m in reps)

    @pytest.mark.parametrize("n", range(17, 23))
    def test_orbit_reps_match_all_masks(self, n):
        # the odd-mask bound against canonicalizing every mask
        everything = _least_in_orbit(np.arange(1 << n, dtype=np.uint32),
                                     n, range(1, n))
        assert np.array_equal(_orbit_reps(n), everything)

    @pytest.mark.parametrize("n", [32, 33, 40, 64])
    def test_least_in_orbit_on_wide_masks(self, n):
        dtype = np.uint32 if n <= 32 else np.uint64
        rng = np.random.default_rng(n)
        masks = np.concatenate([
            rng.integers(0, 1 << n, size=2000, dtype=dtype),
            np.array([0, 1, (1 << n) - 1], dtype=dtype)])
        kept = _least_in_orbit(masks, n, range(1, n)).tolist()
        assert kept == [m for m in masks.tolist()
                        if m == min(_rotations(m, n))]
        assert 3 <= len(kept) < len(masks)

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 14])
    def test_orbit_reps_across_chunk_boundaries(self, monkeypatch, chunk):
        # chunks of 3 candidates leave a partial last chunk at every n >= 4
        want = [_least_in_orbit(np.arange(1 << n, dtype=np.uint32), n,
                                range(1, n)) for n in range(1, 17)]
        monkeypatch.setattr(determinacy, "_CHUNK", chunk)
        for n in range(1, 17):
            assert np.array_equal(_orbit_reps(n), want[n - 1]), n

    @pytest.mark.parametrize("n", [5, 12, 18, 33])
    def test_least_in_orbit_in_any_shift_order(self, n):
        # a mask is kept when no rotation is smaller, whatever the order in
        # which the rotations are compared
        dtype = np.uint32 if n <= 32 else np.uint64
        rng = np.random.default_rng(n)
        masks = rng.integers(0, 1 << n, size=5000, dtype=dtype)
        kept = _least_in_orbit(masks, n, range(1, n))
        for _ in range(3):
            shifts = rng.permutation(np.arange(1, n)).tolist()
            assert np.array_equal(_least_in_orbit(masks, n, shifts), kept)

    @pytest.mark.parametrize("n,k", [(n, k) for k in (2, 3)
                                     for n in range(1, 13)]
                             + [(n, 4) for n in range(1, 11)]
                             + [(n, 5) for n in range(1, 9)])
    def test_matches_loop_reference(self, n, k):
        assert td.exhaustive_determinacy(n, k) == _sweep_by_loop(n, k)

    @pytest.mark.parametrize("n", sorted({2, 3, 5, 7, 11, 13, 17, 19, 23}
                                         | set(range(1, 22, 2))))
    def test_prime_and_odd_moduli_are_determined(self, n, monkeypatch):
        # Radcliffe & Scott (prime n), Pebody (odd n): the 3-deck of a
        # subset of Z/nZ fixes it up to translation
        monkeypatch.setenv("TRIDECK_BUDGET", str(10**9))
        rep = td.exhaustive_determinacy(n, 3)
        assert rep.ambiguous_classes == ()
        assert rep.runtime_stats["deck_classes"] == _burnside(n)

    @pytest.mark.parametrize("n,classes", [(18, 7), (20, 18), (22, 31),
                                           (24, 69)])
    def test_even_moduli_ambiguous_counts(self, n, classes, monkeypatch):
        monkeypatch.setenv("TRIDECK_BUDGET", str(10**9))
        rep = td.exhaustive_determinacy(n, 3)
        assert len(rep.ambiguous_classes) == classes
        # pairs of orbits only, up to n = 22; n = 24 has six classes of four
        sizes = Counter(len(c) for c in rep.ambiguous_classes)
        assert sizes == ({2: 63, 4: 6} if n == 24 else {2: classes})

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_hash_never_decides(self, monkeypatch, k):
        # a hash that collides everywhere sends every orbit to the exact
        # stage, which must give the same report
        moduli = range(1, 11 if k == 5 else 15)
        reports = [td.exhaustive_determinacy(n, k) for n in moduli]
        monkeypatch.setattr(
            determinacy, "_stage1_hash",
            lambda reps, n, k: np.zeros(len(reps), dtype=np.uint64))
        assert [td.exhaustive_determinacy(n, k) for n in moduli] == reports

    @pytest.mark.parametrize("n,k", [(7, 3), (12, 4)])
    def test_no_shared_hash_skips_the_exact_stage(self, monkeypatch, n, k):
        # no two orbits share a stage-1 hash here, so no deck row is built
        def refuse(masks, n, k):
            raise AssertionError("_deck_rows called with nothing colliding")
        monkeypatch.setattr(determinacy, "_deck_rows", refuse)
        report = td.exhaustive_determinacy(n, k)
        assert report == _sweep_by_loop(n, k)
        assert report.runtime_stats["deck_classes"] == _burnside(n)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_stage1_hash_is_the_column_fold(self, k):
        # one AND per offset prefix folds the same entries in the same
        # order as one column per offset tuple
        for n in range(1, 15):
            reps = _orbit_reps(n)
            assert np.array_equal(determinacy._stage1_hash(reps, n, k),
                                  _hash_by_columns(reps, n, k)), n

    def test_budget_charges_kernel_work(self):
        td.exhaustive_determinacy(20, 3)  # fits the default budget
        with pytest.raises(BudgetError):
            td.exhaustive_determinacy(22, 3)

    def test_refuses_more_than_64_bits(self, monkeypatch):
        monkeypatch.setenv("TRIDECK_BUDGET", "1")
        with pytest.raises(DomainError):
            td.exhaustive_determinacy(65, 3)

    def test_json(self):
        d = td.exhaustive_determinacy(5, 3).to_json_dict()
        assert d["total_sets"] == 32 and d["ambiguous_classes"] == []


class TestGmCounterexample:
    def test_pair_properties(self):
        pair = td.gm_counterexample(2, 3, 3)
        assert pair.n == 18
        f = td.CyclicFunction.indicator(18, pair.E)
        g = td.CyclicFunction.indicator(18, pair.F)
        assert td.deck_equal(td.k_deck(f, 3), td.k_deck(g, 3))
        assert td.equal_up_to_translation(f, g) is None
        assert td.equal_up_to_translation(g, f) is None
        assert not td.deck_equal(td.k_deck(f, 4), td.k_deck(g, 4))

    def test_antipodal_structure(self):
        pair = td.gm_counterexample(2, 3, 3)
        m = pair.n // 2
        assert {(x + m) % pair.n for x in pair.E} == \
            set(range(pair.n)) - pair.E
        assert pair.F == {(-x) % pair.n for x in pair.E}

    def test_n30(self):
        pair = td.gm_counterexample(2, 3, 5)
        assert pair.n == 30
        f = td.CyclicFunction.indicator(30, pair.E)
        g = td.CyclicFunction.indicator(30, pair.F)
        assert td.deck_equal(td.k_deck(f, 3), td.k_deck(g, 3))
        assert td.equal_up_to_translation(f, g) is None

    def test_preconditions(self):
        with pytest.raises(DomainError):
            td.gm_counterexample(2, 3, 2)  # r >= 3
        with pytest.raises(DomainError):
            td.gm_counterexample(3, 3, 3)  # distinct primes
        with pytest.raises(DomainError):
            td.gm_counterexample(4, 3, 3)  # prime check
        with pytest.raises(DomainError):
            td.gm_counterexample(3, 5, 3)  # odd modulus unsupported

    def test_deterministic(self):
        assert td.gm_counterexample(2, 3, 3) == td.gm_counterexample(2, 3, 3)


class TestSurvey:
    def test_exhaustive_exact_values(self):
        assert td.survey_zero_proportion(5).exact == Fraction(2, 32)
        assert td.survey_zero_proportion(7).exact == Fraction(2, 128)
        assert td.survey_zero_proportion(11).exact == Fraction(2, 2048)

    def test_n6_regression_value(self):
        # frozen on first run; composite moduli admit many vanishing spectra
        assert td.survey_zero_proportion(6).exact == Fraction(7, 16)

    def test_prime_only_trivial_sets(self):
        # for prime n only the empty and full sets can vanish somewhere
        r = td.survey_zero_proportion(13, mode="exhaustive")
        assert r.exact == Fraction(2, 2**13)

    def test_exhaustive_matches_subset_loop(self):
        # the plain loop over all 2^n subsets, with the scalar cyclotomic
        # division, against the orbit-weighted count
        for n in range(1, 13):
            hits = sum(
                1 for mask in range(1 << n)
                if td.zero_set(n, [j for j in range(n) if mask >> j & 1])
                .zeros - {0})
            r = td.survey_zero_proportion(n, mode="exhaustive")
            assert (r.hits, r.samples) == (hits, 1 << n), n

    @pytest.mark.parametrize("n", range(13, 21))
    def test_exhaustive_matches_divisor_check(self, n):
        # the orbit-weighted count with one int64 product per divisor
        r = td.survey_zero_proportion(n, mode="exhaustive")
        assert (r.hits, r.samples) == (_exhaustive_hits_by_divisor(n),
                                       1 << n)

    @pytest.mark.parametrize("n", [26, 105, 210])  # Phi_105 has a -2
    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_matches_divisor_check(self, n, seed):
        r = td.survey_zero_proportion(n, 2000, seed, "sampled")
        assert r.hits == _sampled_hits_by_divisor(n, 2000, seed)

    @pytest.mark.parametrize("chunk", [1, 7, 512, 4096])
    def test_survey_across_chunk_boundaries(self, monkeypatch, chunk):
        # 20 000 samples are drawn as 16 384 + 3 616 rows, and each draw and
        # the orbit list (352..4 116 orbits) is tested a chunk at a time; the
        # last orbit, the full set, has a zero at every n > 1
        monkeypatch.setattr(determinacy, "_SURVEY_CHUNK", chunk)
        for n in range(12, 17):
            r = td.survey_zero_proportion(n, mode="exhaustive")
            assert r.hits == _exhaustive_hits_by_divisor(n), n
        r = td.survey_zero_proportion(26, 20000, 0, "sampled")
        assert r.hits == _sampled_hits_by_divisor(26, 20000, 0)

    @pytest.mark.parametrize("n", [*range(1, 65), 105, 210, 1155])
    def test_residue_matrix_is_float_when_exact(self, n):
        M, block = determinacy._residue_matrix(n)
        exact = n * int(np.abs(M).max(initial=0)) < 2**53
        assert M.dtype == (np.float64 if exact else np.int64)
        assert M.shape == (n, n - 1)  # sum of phi(d) over d | n, d > 1
        assert block.sum(axis=0).tolist() == [
            len(cyclotomic(d)) - 1 for d in range(2, n + 1) if n % d == 0]

    @pytest.mark.parametrize("c,dtype", [(2**51, np.float64),
                                         (2**52, np.int64)])
    def test_residue_matrix_keeps_int64_from_2_53(self, monkeypatch, c,
                                                  dtype):
        # x - c in place of Phi_2: at n = 2, M holds 1 and c, and n * c
        # reaches 2^53 only at c = 2^52
        monkeypatch.setattr(determinacy, "cyclotomic", lambda d: (-c, 1))
        M, _ = determinacy._residue_matrix(2)
        assert M.dtype == dtype and M[:, 0].tolist() == [1, c]

    @pytest.mark.parametrize("n", [*range(2, 80), 105, 210, 360, 1009])
    def test_residue_matrix_matches_division(self, n):
        # the columns of each divisor d, x^j mod Phi_d for j < n, each from
        # the last by one poly_divmod
        cols = []
        for d in range(2, n + 1):
            if n % d == 0:
                phi, row, rows = cyclotomic(d), (1,), []
                for _ in range(n):
                    rows.append(row + (0,) * (len(phi) - 1 - len(row)))
                    row = poly_divmod((0,) + row, phi)[1]
                cols.append(np.array(rows))
        M, _ = determinacy._residue_matrix(n)
        assert np.array_equal(M, np.hstack(cols))

    def test_residue_matrix_is_charged_to_the_budget(self, monkeypatch):
        # n * (n - 1) entries: 992 at n = 32, 1 332 870 at n = 1155
        monkeypatch.setenv("TRIDECK_BUDGET", "1000")
        assert td.survey_zero_proportion(32, 10, mode="sampled").samples == 10
        built = []
        monkeypatch.setattr(determinacy, "_residue_matrix", built.append)
        with pytest.raises(BudgetError):
            td.survey_zero_proportion(1155, 1, mode="sampled")
        assert built == []

    def test_sampled_deterministic(self):
        a = td.survey_zero_proportion(26, samples=2000, seed=9)
        b = td.survey_zero_proportion(26, samples=2000, seed=9)
        assert (a.hits, a.ci_low, a.ci_high) == (b.hits, b.ci_low, b.ci_high)
        assert a.mode == "sampled"

    def test_sampled_needs_samples(self):
        with pytest.raises(DomainError):
            td.survey_zero_proportion(26, mode="sampled")

    def test_wilson_interval_sane(self):
        lo, hi = _wilson(50, 100)
        assert 0.4 < lo < 0.5 < hi < 0.6

    def test_monotone_trend_over_primes(self):
        vals = [td.survey_zero_proportion(n).proportion for n in (5, 7, 11)]
        s13 = td.survey_zero_proportion(13, samples=20000, seed=1,
                                        mode="sampled").proportion
        vals.append(s13)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestAllK:
    def test_gm_pair_differs_at_four(self):
        pair = td.gm_counterexample(2, 3, 3)
        f = td.CyclicFunction.indicator(18, pair.E)
        g = td.CyclicFunction.indicator(18, pair.F)
        v = td.verify_all_k_uniqueness(f, g, 4)
        assert v.first_differing_k == 4
        assert v.translate_shift is None

    def test_translates_agree_for_all_k(self):
        f = td.CyclicFunction.of([2, 1, 0, 3, 1])
        v = td.verify_all_k_uniqueness(f, td.translate(f, 2), 5)
        assert v.decks_all_equal and v.translate_shift == 2

    def test_differ_at_two(self):
        f = td.CyclicFunction.indicator(5, [0, 1])
        g = td.CyclicFunction.indicator(5, [0, 2])
        assert td.verify_all_k_uniqueness(f, g, 4).first_differing_k == 2

    def test_validation(self):
        f = td.CyclicFunction.of([1, 1])
        with pytest.raises(DomainError):
            td.verify_all_k_uniqueness(f, td.CyclicFunction.of([1, 1, 1]), 3)
        with pytest.raises(DomainError):
            td.verify_all_k_uniqueness(f, f, 1)
