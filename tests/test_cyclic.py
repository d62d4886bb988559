import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trideck as td
from trideck import cyclic
from trideck.cyclic import _deck_int64, _shift_matrix, _sorted_index
from trideck.errors import BudgetError, DomainError, ShapeMismatchError


@pytest.mark.parametrize("k", [4, 5, 6])
@pytest.mark.parametrize("dtype", [np.int64, object, np.float64])
def test_deck_core_contraction_order_is_exact(k, dtype):
    n = 9
    v = np.random.default_rng(k).integers(0, 50, n)
    if dtype is object:  # Python ints beyond int64
        v = np.array([int(x) * 10**20 for x in v], dtype=object)
    elif dtype is np.float64:  # 9 * 49^6 < 2^53: every sum is exact
        v = v.astype(np.float64)
    R = v[_shift_matrix(n)]
    sub = "j," + ",".join(f"{c}j" for c in "abcde"[:k - 1]) + "->" \
        + "abcde"[:k - 1]
    assert np.array_equal(_deck_int64(v, n, k),
                          np.einsum(sub, v, *([R] * (k - 1)), optimize=False))


def _brute_deck(v, k):
    """sum_j v_j v_{j+s_1} ... v_{j+s_{k-1}} for every (s_1..s_{k-1}),
    row-major, in Python ints."""
    n = len(v)
    out = []
    for s in itertools.product(range(n), repeat=k - 1):
        total = 0
        for j in range(n):
            p = v[j]
            for t in s:
                p *= v[(j + t) % n]
            total += p
        out.append(total)
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", range(1, 7))
def test_deck_core_matches_brute_force(k, n):
    # signed values, each tier at a size it holds exactly: 6 * 9^6 < 2^53
    v = np.random.default_rng(10 * k + n).integers(-9, 10, n).tolist()
    big = [x * 10**20 + 1 for x in v]
    for dtype, ints in ((np.float64, v), (np.int64, v), (object, big)):
        got = _deck_int64(np.array(ints, dtype=dtype), n, k)
        assert got.shape == (n,) * (k - 1) and got.dtype == dtype
        assert got.reshape(-1).tolist() == _brute_deck(ints, k)


def _tier_inputs(k, n, above):
    """A constant and a signed function (the raw constructor) on Z/nZ whose
    largest |value| is M, and the bound n * M^k: just below 2^53, or just
    above it and odd, so that the constant's deck entry n * M^k is no
    double."""
    M = int(((2**53 - 1) / n) ** (1 / k)) + 2
    while n * M**k >= 2**53:  # the largest M below the bound
        M -= 1
    if above:
        M += 1 if M % 2 == 0 else 2  # odd, so n * M^k is odd
    signed = [M, -M, M - 1, -(M // 3), 1][:n]
    return [td.CyclicFunction.of([M] * n),
            td.CyclicFunction(n, tuple(map(Fraction, signed)))], n * M**k


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
def test_float64_tier_boundary(k, above, monkeypatch):
    # the float64 core is used exactly when n * M^k < 2^53, and every tier
    # gives the Python-int deck
    used = []

    def spy(v, n, k):
        used.append(v.dtype)
        return _deck_int64(v, n, k)

    monkeypatch.setattr(cyclic, "_deck_int64", spy)
    for n in (3, 5):
        fs, bound = _tier_inputs(k, n, above)
        assert (bound >= 2**53) == above and bound < 2**62
        for f in fs:
            ints = np.array([int(x) for x in f.values], dtype=object)
            want = _deck_int64(ints, n, k)
            got = td.k_deck(f, k)
            assert got.denominator == 1
            assert got.values.dtype == np.int64
            assert got.values.tolist() == want.tolist()
            assert want.reshape(-1).tolist() == _brute_deck(
                [int(x) for x in f.values], k)
    assert set(used) == {np.dtype(np.int64 if above else np.float64)}


def small_functions(max_n=12, max_val=9):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(0, max_val),
                           min_size=n, max_size=n)).map(td.CyclicFunction.of)


def _float_mirror_zero():
    """A float 4-deck symmetric in its prefix axes except at one mirrored
    pair of entries, which holds 0.0 and -0.0."""
    v = np.arange(27.0).reshape(3, 3, 3)
    v = v + v.transpose(1, 0, 2)
    v[0, 1, 2], v[1, 0, 2] = 0.0, -0.0
    return td.KDeck(3, 4, v)


_DECKS = [
    lambda: td.k_deck(td.CyclicFunction.of([2, 1, 0, 5]), 4),  # int64
    # int64 entries over a denominator beyond int64
    lambda: td.k_deck(td.CyclicFunction.of([Fraction(1, 3**30), 0]), 3),
    lambda: td.k_deck(td.CyclicFunction.of(  # object entries
        [f"{10**12 + 1}/3", 1, "2/9", 0]), 3),
    lambda: td.three_deck_fft(td.CyclicFunction.of([2, "1/3", 0, 7])),
    lambda: td.KDeck(2, 3, np.array([[0.0, -0.0], [1.5, 0.0]])),
    # signed entries summed in int64: 3 * 1000001^3 is past 2^53
    lambda: td.k_deck(td.CyclicFunction(3, tuple(map(Fraction, [
        "-1000001/7", "3/7", "-5/7"]))), 3),
    lambda: td.k_deck(td.CyclicFunction(3, tuple(map(Fraction, [
        "-1/6", "3/4", 2]))), 3),  # signed, summed in float64
    lambda: td.k_deck(td.CyclicFunction.of(["1/2", 3, 0, "5/3"]), 2),
    lambda: td.k_deck(td.CyclicFunction.of(["7/2"]), 4),  # n = 1
    lambda: td.k_deck(td.CyclicFunction.of([1, "1/2", 0, 3]), 5),
    lambda: td.k_deck(td.CyclicFunction.of([2, 0, "1/3"]), 6),
    # exact, but not symmetric in its prefix axes
    lambda: td.KDeck(3, 4, np.arange(27).reshape(3, 3, 3), 2),
    _float_mirror_zero,
]
_DECK_IDS = ["int64", "int64-over-3^90", "object", "fft", "signed-zero",
             "signed-int64-core", "signed-float64-core", "k2", "n1", "k5",
             "k6", "asymmetric", "mirrored-zeros"]


class TestCyclicFunction:
    def test_of_rejects_negative(self):
        with pytest.raises(DomainError):
            td.CyclicFunction.of([1, -1, 0])

    def test_raw_constructor_allows_signed_parts(self):
        f = td.CyclicFunction(2, (Fraction(-1, 2), Fraction(1, 2)))
        assert f.values[0] < 0

    def test_indicator_and_support(self):
        f = td.CyclicFunction.indicator(6, [0, 2, 4])
        assert f.support() == {0, 2, 4}
        assert f[8] == 1  # index mod n

    def test_json_roundtrip(self):
        f = td.CyclicFunction.of(["1/3", 2, 0])
        assert td.CyclicFunction.from_json_dict(
            json.loads(json.dumps(f.to_json_dict()))) == f

    @pytest.mark.parametrize("values", [[1, True, 0], [False, 2, "1/2"],
                                        [0.5, False, 1.0]])
    def test_json_loader_rejects_booleans(self, values):
        with pytest.raises(DomainError, match="values must be finite "
                           "numbers or rational strings"):
            td.CyclicFunction.from_json_dict({"n": 3, "values": values})

    # 3 + 7e-10 is 7e-10 from 3 but 3e-10 from 3 + 1/10^9: a threshold of
    # 1e-9 in place of 5e-10 would round it to 3.
    _EDGES = [3 + 7e-10, 3 + 4.99e-10, 3 + 5.01e-10, -3 - 4.99e-10,
              -3 - 5.01e-10, 5e-10, np.nextafter(5e-10, 0), -5e-10, 1e-9,
              0.0, -0.0, 0.5, -0.5, 2.5, -7.5, 1 / 3, -2 / 3, 0.1,
              2.0**53, -(2.0**53), 2.0**53 - 1, 2.0**52 + 0.5, 1e15 + 0.25,
              123456.000000001, -123456.999999999, 5e-324]

    @staticmethod
    def _assert_limit_denominator(xs):
        got = td.CyclicFunction.from_floats(xs).values
        want = [Fraction(float(x)).limit_denominator(10**9) for x in xs]
        assert [(v.numerator, v.denominator) for v in got] == \
            [(v.numerator, v.denominator) for v in want]

    def test_from_floats_is_limit_denominator(self):
        self._assert_limit_denominator(self._EDGES)
        self._assert_limit_denominator(np.array(self._EDGES))
        m = np.arange(-4, 5, dtype=np.float64)
        near = [np.nextafter(b + s * 5e-10, b) for b in m for s in (-1, 1)]
        far = [np.nextafter(b + s * 5e-10, b + s) for b in m for s in (-1, 1)]
        self._assert_limit_denominator(near + far)

    @given(st.lists(st.one_of(
        st.floats(-2.0**53, 2.0**53),
        st.integers(-50, 50).flatmap(lambda m: st.floats(
            m - 2e-9, m + 2e-9))), min_size=1))
    @settings(max_examples=200, deadline=None)
    def test_from_floats_is_limit_denominator_fuzz(self, xs):
        self._assert_limit_denominator(xs)

    @pytest.mark.parametrize("bad, error", [
        (float("nan"), ValueError), (float("inf"), OverflowError),
        (float("-inf"), OverflowError)])
    def test_from_floats_non_finite(self, bad, error):
        with pytest.raises(error) as old:
            Fraction(bad).limit_denominator(10**9)
        with pytest.raises(error) as new:
            td.CyclicFunction.from_floats([1.0, bad, 2.5])
        assert str(new.value) == str(old.value)

    def test_n1_degenerate(self):
        f = td.CyclicFunction.of([3])
        d = td.k_deck(f, 3)
        assert d.values[(0,) * 2] == 27


def dft_direct(f):
    """Direct summation, independent of the FFT path: the DFT oracle."""
    n = f.n
    vals = f.as_floats()
    out = np.zeros(n, dtype=np.complex128)
    for l in range(n):
        for j in range(n):
            out[l] += vals[j] * np.exp(2j * np.pi * j * l / n)
    return out


class TestDft:
    def test_positive_exponent_convention(self):
        # fhat(1) of delta_1 on Z/4Z must be +i, not -i
        f = td.CyclicFunction.indicator(4, [1])
        assert td.dft(f)[1] == pytest.approx(1j)

    @given(small_functions(max_n=8))
    @settings(max_examples=50, deadline=None)
    def test_fft_matches_direct_summation(self, f):
        fast, slow = td.dft(f).values, dft_direct(f)
        assert np.max(np.abs(fast - slow)) < 1e-9 * (1 + np.max(np.abs(slow)))


class TestKDeck:
    def test_two_deck_example(self):
        f = td.CyclicFunction.indicator(5, [0, 1])
        d = td.k_deck(f, 2)
        assert [int(v) for v in d.values] == [2, 1, 0, 0, 1]

    def test_three_deck_example(self):
        d = td.k_deck(td.CyclicFunction.of([2, 1, 0]), 3)
        assert d.values[0, 0] == 9
        assert d.values[1, 2] == 0
        assert d.values[2, 2] == 4

    def test_order_bounds(self):
        f = td.CyclicFunction.of([1, 1])
        with pytest.raises(DomainError):
            td.k_deck(f, 1)
        with pytest.raises(DomainError):
            td.k_deck(f, 7)

    def test_budget_refusal(self, monkeypatch):
        monkeypatch.setenv("TRIDECK_BUDGET", "100")
        with pytest.raises(BudgetError):
            td.k_deck(td.CyclicFunction.of([1] * 12), 3)

    def test_object_fallback_matches_int64(self):
        # huge values force the arbitrary-precision path
        small = td.CyclicFunction.of([3, 1, 4, 1, 5])
        big = td.CyclicFunction.of([v * 10**9 for v in (3, 1, 4, 1, 5)])
        for k in (3, 4, 5):
            ds, db = td.k_deck(small, k), td.k_deck(big, k)
            assert ds.values.dtype == np.int64 and db.values.dtype == object
            assert ds.denominator == db.denominator == 1
            assert np.array_equal(db.values,
                                  ds.values.astype(object) * 10**(9 * k))

    def test_rational_scaling(self):
        f = td.CyclicFunction.of(["1/2", "1/3", 0])
        d = td.k_deck(f, 3)
        g = td.CyclicFunction.of([3, 2, 0])
        # N_f * 6^3 == N_g, with N_f = d.values / d.denominator
        assert np.array_equal(d.values * 6**3,
                              td.k_deck(g, 3).values * d.denominator)

    def test_exact_deck_in_lowest_terms(self):
        d = td.k_deck(td.CyclicFunction.of(["1/2", "1/2"]), 3)
        assert d.denominator == 4 and np.all(d.values == 1)  # 2/8 = 1/4
        assert d.to_json_dict()["values"] == ["1/4"] * 4
        # int64 entries over a denominator beyond int64
        tiny = td.k_deck(td.CyclicFunction.of([Fraction(1, 3**30), 0]), 3)
        assert tiny.values.dtype == np.int64 and tiny.denominator == 3**90
        assert tiny.to_json_dict()["values"] == [f"1/{3**90}", 0, 0, 0]
        assert tiny.to_csv().splitlines()[1:] == [f"1/{3**90},0", "0,0"]
        assert tiny.as_floats()[0, 0] == float(Fraction(1, 3**90))

    def test_lowest_terms_factor_fails_in_last_chunk(self):
        # 17^3 entries: a full chunk of 4096 multiples of 6, then a partial
        # one whose last entry is 3 mod 6
        values = np.full((17,) * 3, 12, dtype=np.int64)
        values[-1, -1, -1] = 9
        assert values.size > cyclic._GCD_CHUNK
        d = td.KDeck(17, 4, values, 30)
        assert d.denominator == 10
        assert d.values.reshape(-1).tolist() == [4] * (17**3 - 1) + [3]
        d = td.KDeck(17, 4, values.astype(object) * 10**30, 30)
        assert d.denominator == 1 and d.values[-1, -1, -1] == 3 * 10**29

    def test_lowest_terms_denominator_one_keeps_the_array(self):
        values = np.arange(8, dtype=np.int64).reshape(2, 2, 2) * 4
        d = td.KDeck(2, 4, values, 1)
        assert d.values is values and d.denominator == 1

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_lowest_terms_all_zero(self, dtype):
        d = td.KDeck(3, 3, np.zeros((3, 3), dtype=dtype), 12)
        assert d.denominator == 1 and d.values.tolist() == [[0] * 3] * 3

    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=9),
           st.integers(1, 120), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_lowest_terms_chunked_gcd_is_the_full_gcd(self, values, den,
                                                      chunk):
        g = math.gcd(den, *values)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cyclic, "_GCD_CHUNK", chunk)
            d = td.KDeck(len(values), 2, np.array(values, dtype=np.int64),
                         den)
        assert d.denominator == den // g
        assert d.values.tolist() == [x // g for x in values]

    @pytest.mark.parametrize("values", [
        ["1000001/7", "3/7", "5/7"],  # int64 entries >= 2^53
        [f"{10**12 + 1}/3", 1, "2/9"],  # object entries
    ])
    def test_as_floats_rounds_each_entry_once(self, values):
        d = td.k_deck(td.CyclicFunction.of(values), 3)
        assert int(np.max(np.abs(d.values))) >= 2**53
        want = [float(Fraction(int(x), d.denominator))
                for x in d.values.reshape(-1).tolist()]
        assert d.as_floats().reshape(-1).tolist() == want

    @pytest.mark.parametrize("deck", [
        {"n": 2, "k": 3, "values": ["1e999", "0", "0", "0"]},
        td.k_deck(td.CyclicFunction.of(["1e300", 1]), 3).to_json_dict()])
    def test_as_floats_past_the_float_range_is_a_domain_error(self, deck):
        # an OverflowError of int / int, which exited through a traceback
        with pytest.raises(DomainError, match="past the float range"):
            td.KDeck.from_json_dict(deck).as_floats()

    def test_deck_equal_across_value_denominators(self):
        f = td.CyclicFunction.of(["1/2", "1/3", 0, "5/4"])
        d = td.k_deck(f, 3)
        # the same deck written over 7 * 12^3 and over each entry's own
        # denominator; both reduce to the lowest-terms deck
        scaled = td.KDeck(4, 3, d.values * 7, d.denominator * 7)
        back = td.KDeck.from_json_dict(d.to_json_dict())
        assert td.deck_equal(d, scaled) and td.deck_equal(d, back)
        assert scaled.denominator == back.denominator == d.denominator
        changed = d.values.copy()
        changed[1, 2] += 1
        assert not td.deck_equal(d, td.KDeck(4, 3, changed, d.denominator))

    @given(small_functions(), st.integers(0, 11), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, f, a, k):
        assert td.deck_equal(td.k_deck(f, k), td.k_deck(td.translate(f, a), k))

    @given(small_functions())
    @settings(max_examples=40, deadline=None)
    def test_fft_route_agrees(self, f):
        exact = td.k_deck(f, 3).as_floats()
        fast = td.three_deck_fft(f).values
        assert np.max(np.abs(exact - fast)) <= 1e-9 * (1 + np.max(exact))

    def test_json_and_csv_export(self):
        d = td.k_deck(td.CyclicFunction.of([2, 1, 0]), 3)
        back = td.KDeck.from_json_dict(
            json.loads(json.dumps(d.to_json_dict())))
        assert back.exact and np.all(back.values == d.values)
        csv = d.to_csv()
        assert csv.startswith("# n=3,k=3,convention=positive-exponent")
        assert len(csv.strip().splitlines()) == 4

    @pytest.mark.parametrize("deck", _DECKS, ids=_DECK_IDS)
    def test_to_json_is_the_plain_encoding(self, deck):
        d = deck()
        flat = d.values.reshape(-1).tolist()
        if d.exact:
            flat = [int(q) if q.denominator == 1 else str(q)
                    for q in (Fraction(x, d.denominator) for x in flat)]
        plain = {"n": d.n, "k": d.k, "convention": "positive-exponent",
                 "values": flat}
        text = json.dumps(plain, indent=2, sort_keys=True)
        assert d.to_json() == text + "\n"
        assert json.dumps(d.to_json_dict(), indent=2, sort_keys=True) == text

    @pytest.mark.parametrize("deck", _DECKS, ids=_DECK_IDS)
    def test_to_csv_is_the_plain_encoding(self, deck):
        d = deck()
        flat = d.values.reshape(-1).tolist()
        if d.exact:
            flat = [Fraction(x, d.denominator) for x in flat]
        rows = [",".join(map(str, flat[i:i + d.n]))
                for i in range(0, len(flat), d.n)]
        assert d.to_csv() == "\n".join(
            [f"# n={d.n},k={d.k},convention=positive-exponent", *rows, ""])

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("r", range(5))
    def test_sorted_index(self, n, r):
        want = [sum(j * n ** (r - 1 - i) for i, j in enumerate(sorted(t)))
                for t in itertools.product(range(n), repeat=r)]
        assert _sorted_index(n, r).tolist() == want

    def test_modulus_below_one_rejected(self):
        with pytest.raises(DomainError):
            td.KDeck(0, 3, np.zeros((0, 0), dtype=np.int64), 1)

    @pytest.mark.parametrize("d", [
        {"n": 2, "values": [1, 2, 3, 4]},  # no k
        {"k": 3, "values": [1, 2, 3, 4]},  # no n
        {"n": 2, "k": 3},  # no values
        [2, 3, [1, 2, 3, 4]],  # not an object
        {"n": 2, "k": 3, "values": [1, 2, 3]},  # n^(k-1) = 4 entries
        {"n": 2, "k": 9, "values": [1] * 256},  # order out of range
        {"n": 2, "k": 3, "values": [1.0, float("nan"), 3.0, 4.0]},
        {"n": 2, "k": 3, "values": [1.0, float("inf"), 3.0, 4.0]},
        {"n": 2, "k": 3, "values": ["1/2", "1/0", 3, 4]},
        {"n": 2, "k": 3, "values": ["1/2", float("inf"), 3, 4]},
        {"n": 2, "k": 3, "values": [1, None, 3, 4]},
        # JSON booleans are not numbers, in an exact deck or a float one
        {"n": 2, "k": 3, "values": [True, False, False, False]},
        {"n": 2, "k": 3, "values": [1, 0, 0, True]},
        {"n": 2, "k": 3, "values": ["1/2", True, 0, 0]},
        {"n": 2, "k": 3, "values": [1.5, False, 0.0, 0.0]},
    ])
    def test_json_loader_rejects_malformed(self, d):
        with pytest.raises(DomainError):
            td.KDeck.from_json_dict(d)


class TestBispectrum:
    def test_deck_bispectrum_roundtrip(self):
        f = td.CyclicFunction.of([1, 3, 0, 2, 1])
        B1 = td.bispectrum(f).values
        B2 = td.bispectrum_from_deck(td.k_deck(f, 3)).values
        assert np.max(np.abs(B1 - B2)) < 1e-8 * np.max(np.abs(B1))

    @pytest.mark.parametrize("seed", range(40))
    def test_in_place_scaling_is_bit_identical(self, seed):
        # test-local copies of the expressions that allocated a fresh n x n
        # array for each product or scaling
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        f = td.CyclicFunction.of(rng.integers(0, 9, n).tolist())
        fh = td.dft(f).values
        l = np.arange(n)
        third = fh[(-(l[:, None] + l[None, :])) % n]
        B = fh[:, None] * fh[None, :] * third
        deck = td.k_deck(f, 3)
        from_deck = np.fft.ifft2(deck.as_floats()) * n**2
        N = np.real(np.fft.fft2(B) / n**2)
        for got, want in ((td.bispectrum(f).values, B),
                          (td.bispectrum_from_deck(deck).values, from_deck),
                          (td.three_deck_fft(f).values, N)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_text_is_json_dumps(self, seed):
        # random complex entries with NaN, infinities, signed zeros and
        # repeats among them, and the bispectrum of a random function
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 24))
        parts = rng.normal(size=(2, n, n)) * 10.0 ** rng.integers(-20, 20)
        odd = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300, 0.5]
        flat = parts.reshape(-1)
        spots = rng.integers(0, flat.size, int(rng.integers(0, 12)))
        flat[spots] = rng.choice(odd, len(spots))
        values = np.empty((n, n), dtype=complex)
        values.real, values.imag = parts
        f = td.CyclicFunction.of(rng.integers(0, 9, n).tolist())
        for B in (td.Bispectrum(n, values), td.bispectrum(f)):
            want = json.dumps(B.to_json_dict(), indent=2, sort_keys=True)
            assert B.to_json() == want + "\n"

    def test_wrong_order_rejected(self):
        with pytest.raises(DomainError):
            td.bispectrum_from_deck(td.k_deck(td.CyclicFunction.of([1, 2]), 2))


class TestTranslation:
    def test_translate_direction(self):
        f = td.CyclicFunction.of([5, 0, 0])
        assert td.translate(f, 1).values[1] == 5

    def test_translate_matches_index_definition(self):
        for n in range(1, 10):
            f = td.CyclicFunction(n, tuple(Fraction(j * j + 1, 3)
                                           for j in range(n)))
            for a in range(-2 * n, 2 * n + 1):
                assert td.translate(f, a).values == tuple(
                    f.values[(j - a) % n] for j in range(n))

    def test_equal_up_to_translation_least_shift(self):
        f = td.CyclicFunction.of([1, 1, 0, 0])  # period 4, orbit size 4
        assert td.equal_up_to_translation(f, td.translate(f, 3)) == 3
        g = td.CyclicFunction.of([1, 0, 1, 0])
        assert td.equal_up_to_translation(g, td.translate(g, 3)) == 1

    def test_not_translates(self):
        f = td.CyclicFunction.indicator(5, [0, 1])
        g = td.CyclicFunction.indicator(5, [0, 2])
        assert td.equal_up_to_translation(f, g) is None

    def test_modulus_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            td.equal_up_to_translation(td.CyclicFunction.of([1]),
                                       td.CyclicFunction.of([1, 1]))

    @staticmethod
    def _shift_loop(f, g):  # every shift tried, the least first
        n = f.n
        for a in range(n):
            if all(g.values[j] == f.values[(j - a) % n] for j in range(n)):
                return a
        return None

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equal_up_to_translation_matches_shift_loop(self, n):
        # every f over {0, 1, 2}: each translate, a random g, a random
        # rearrangement of f's own values and f / 2, whose cleared integers
        # are often f's
        rng = np.random.default_rng(n)
        digits = [Fraction(0), Fraction(1), Fraction(2)]
        for vals in itertools.product(digits, repeat=n):
            f = td.CyclicFunction(n, vals)
            others = [td.translate(f, a) for a in range(n)]
            others.append(td.CyclicFunction(
                n, tuple(digits[int(d)] for d in rng.integers(0, 3, n))))
            others.append(td.CyclicFunction(
                n, tuple(vals[int(j)] for j in rng.permutation(n))))
            others.append(td.CyclicFunction(n, tuple(v / 2 for v in vals)))
            for g in others:
                assert (td.equal_up_to_translation(f, g)
                        == self._shift_loop(f, g)), (f, g)

    def test_canonical_rotation(self):
        f = td.CyclicFunction.of([2, 0, 1])
        canon, shift = td.canonical_rotation(f)
        assert canon.values == (Fraction(0), Fraction(1), Fraction(2))
        assert td.translate(f, shift) == canon

    @pytest.mark.parametrize("seed", range(4))
    def test_canonical_rotation_matches_loop(self, seed):
        def by_loop(f):  # every rotation compared, the least shift kept
            best, best_a = f.values, 0
            for a in range(1, f.n):
                cand = tuple(f.values[(j - a) % f.n] for j in range(f.n))
                if cand < best:
                    best, best_a = cand, a
            return td.CyclicFunction(f.n, best), best_a

        rng = np.random.default_rng(seed)
        for _ in range(300):
            n = int(rng.integers(1, 41))
            period = int(rng.choice([d for d in range(1, n + 1)
                                     if n % d == 0]))
            values = [Fraction(int(a), int(b)) for a, b in
                      zip(rng.integers(0, 3, period),
                          rng.integers(1, 3, period))]
            for vals in (values * (n // period),
                         [Fraction(int(a), int(b)) for a, b in
                          zip(rng.integers(0, 4, n), rng.integers(1, 4, n))]):
                f = td.CyclicFunction(n, tuple(vals))
                assert td.canonical_rotation(f) == by_loop(f)
