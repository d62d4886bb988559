import ast
import functools
import itertools
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trideck as td
from trideck.cyclotomic import (ClassificationError, _as_fraction, _cleared,
                                _divisible, _least_rotation, _two_primes,
                                cyclotomic, function_poly,
                                zero_pattern_of_poly)
from trideck.errors import DomainError


def poly_mul(a, b):
    """Schoolbook product of two coefficient tuples, lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(out)


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


@functools.cache
def _cyclotomic_by_division(m):
    """Phi_m as x^m - 1 divided by Phi_d for each proper divisor d."""
    poly = (-1,) + (0,) * (m - 1) + (1,)
    for d in range(1, m):
        if m % d == 0:
            poly, rem = poly_divmod(poly, _cyclotomic_by_division(d))
            assert not rem, m
    return poly


def _divisible_by_division(c, d):
    return not poly_divmod(_trim(c), _cyclotomic_by_division(d))[1]


def _zeros_by_division(n, E):
    """The l with chi_E_hat(l) = 0: Phi_(n/gcd(n,l)) divides P_E."""
    P = [0] * n
    for j in E:
        P[j % n] += 1
    return {l for l in range(n)
            if _divisible_by_division(P, n // math.gcd(n, l))}


class TestCyclotomic:
    def test_small_cases(self):
        assert cyclotomic(1) == (-1, 1)
        assert cyclotomic(2) == (1, 1)
        assert cyclotomic(6) == (1, -1, 1)

    def test_prime_form(self):
        for p in (2, 3, 5, 7, 11, 13):
            assert cyclotomic(p) == tuple([1] * p)

    def test_value_at_one_identity(self):
        # Phi_m(1) = p for prime powers, 1 otherwise (m > 1)
        for m in range(2, 201):
            val = sum(cyclotomic(m))
            fact = {}
            x = m
            d = 2
            while d * d <= x:
                while x % d == 0:
                    fact[d] = 1
                    x //= d
                d += 1
            if x > 1:
                fact[x] = 1
            expected = next(iter(fact)) if len(fact) == 1 else 1
            assert val == expected, m

    def test_matches_recursive_division(self):
        for m in range(1, 401):
            assert cyclotomic(m) == _cyclotomic_by_division(m), m

    def test_product_identity(self):
        # prod over d | n of Phi_d = x^n - 1
        for n in (*range(1, 121), 210, 2310):
            poly = (1,)
            for d in range(1, n + 1):
                if n % d == 0:
                    poly = poly_mul(poly, cyclotomic(d))
            assert poly == tuple([-1] + [0] * (n - 1) + [1])

    def test_divides(self):
        assert _divisible((1, 1, 1), 3) and _divisible([0, 0, 0, 0], 3)
        assert not _divisible((1, 0, 1), 3)
        assert _divisible((1, -1), 1) and not _divisible((1,), 1)

    @pytest.mark.parametrize("d", range(1, 61))
    def test_divisible_matches_division(self, d):
        # random vectors, which Phi_d seldom divides, multiples of Phi_d,
        # and multiples with one coefficient moved by 1
        rng = np.random.default_rng(d)
        phi = _cyclotomic_by_division(d)
        for _ in range(20):
            noise = rng.integers(-3, 4, size=rng.integers(1, 2 * d + 6))
            g = rng.integers(-3, 4, size=rng.integers(1, d + 6))
            multiple = list(poly_mul(phi, g.tolist()))
            moved = multiple.copy()
            moved[rng.integers(len(moved))] += 1
            for c in (noise.tolist(), multiple, moved):
                assert _divisible(c, d) == _divisible_by_division(c, d), c


class TestZeroDetection:
    def test_spec_examples(self):
        assert td.spectrum_zero_exact(9, {0, 1, 2}, 3)
        assert not td.spectrum_zero_exact(7, {0}, 4)
        assert td.spectrum_zero_exact(6, range(6), 1)

    def test_zero_set_examples(self):
        zp = td.zero_set(6, {0, 2, 4})
        assert zp.zeros == {1, 2, 4, 5} and zp.support == {0, 3}
        assert td.zero_set(9, {0, 1, 2}).zeros == {3, 6}
        assert td.zero_set(7, {0}).zeros == set()
        # 1 + x vanishes only at x = -1, so only at l = n/2; 20014 is
        # 2 * 10007, with a divisor d whose Phi_d has degree 10006
        assert td.zero_set(20000, {0, 1}).zeros == {10000}
        assert td.zero_set(20014, {0, 1}).zeros == {10007}

    @pytest.mark.parametrize("n", range(1, 13))
    def test_zero_set_matches_division(self, n):
        for mask in range(1 << n):
            E = [j for j in range(n) if mask >> j & 1]
            assert td.zero_set(n, E).zeros == _zeros_by_division(n, E), E

    @given(st.integers(2, 24), st.data())
    @settings(max_examples=500, deadline=None)
    def test_exact_agrees_with_float_dft(self, n, data):
        E = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        fh = td.dft(td.CyclicFunction.indicator(n, E)).values
        for l in range(n):
            exact = td.spectrum_zero_exact(n, E, l)
            assert exact == (abs(fh[l]) < 1e-8 * max(len(E), 1)), (n, E, l)

    @given(st.integers(2, 30), st.data())
    @settings(max_examples=120, deadline=None)
    def test_fact2_galois_closure(self, n, data):
        E = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        zeros = td.zero_set(n, E).zeros
        for l in zeros - {0}:
            d = n // math.gcd(n, l)
            # the whole class {j : n/gcd(n,j) = d} vanishes with l
            for j in range(1, n):
                if n // math.gcd(n, j) == d:
                    assert j in zeros

    def test_fact1_periodic_extension(self):
        # q-fold extension of E in Z/pZ: spectrum on qZ with values q*chi_hat
        p, q = 5, 3
        E = {0, 1, 3}
        ext = {j for j in range(p * q) if j % p in E}
        base = td.dft(td.CyclicFunction.indicator(p, E)).values
        lifted = td.dft(td.CyclicFunction.indicator(p * q, ext)).values
        for l in range(p * q):
            want = q * base[(l // q) % p] if l % q == 0 else 0.0
            assert abs(lifted[l] - want) < 1e-8

    def test_function_poly_clears_denominators(self):
        vals = td.CyclicFunction.of(["1/2", "1/3", 0]).values
        assert function_poly(vals) == (3, 2)


class TestPeriodicityAndClassification:
    def test_periodicity(self):
        assert td.periodicity(6, {0, 2, 4}) == 2
        assert td.periodicity(6, {0, 1}) == 6
        assert td.periodicity(6, range(6)) == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_periodicity_matches_divisor_scan(self, n):
        def scan(E):  # each divisor tried, the least first
            for d in range(1, n + 1):
                if n % d == 0 and {(j + d) % n for j in E} == E:
                    return d
        for mask in range(1 << n):
            E = {j for j in range(n) if mask >> j & 1}
            assert td.periodicity(n, E) == scan(E), (n, E)

    def test_least_rotation_is_least(self):
        # plain sequences of any comparable values: strings here
        for n in range(1, 9):
            for word in itertools.product("abc", repeat=n):
                rots = [word[s:] + word[:s] for s in range(n)]
                least = min(rots)
                assert _least_rotation(word) == (
                    rots.index(least), rots[1:].index(word) + 1
                    if word in rots[1:] else n), word

    def test_prime_power_cases(self):
        assert td.classify_zero_pattern(
            25, td.zero_set(25, {0, 1})).tag == "NoZeros"
        case = td.classify_zero_pattern(9, td.zero_set(9, {0, 1, 2}))
        assert case.tag == "PrimePowerGapCase" and case.gap_exponent == 1
        case = td.classify_zero_pattern(9, td.zero_set(9, {0, 3, 6}))
        assert case.tag == "PeriodicSubcase" and case.period == 3
        assert td.classify_zero_pattern(
            9, td.zero_set(9, range(9))).tag == "FullSetOnly"

    def test_two_prime_cases(self):
        case = td.classify_zero_pattern(6, td.zero_set(6, {0, 2, 4}))
        assert case.tag == "TwoPrimePeriodic" and case.period == 2
        assert td.classify_zero_pattern(
            6, td.zero_set(6, {0})).tag == "NoZeros"
        # {0,1} on Z/6: P = 1 + x vanishes exactly at zeta^3 = -1
        zp = td.zero_set(6, {0, 1})
        assert zp.zeros == {3}
        assert td.classify_zero_pattern(6, zp).tag == "TwoPrimeMixedCase"

    def test_mixed_case_concrete(self):
        # {0,1,2} on Z/6: P = Phi_3 vanishes exactly at the primitive cube
        # roots zeta^2, zeta^4
        zp = td.zero_set(6, {0, 1, 2})
        assert zp.zeros == {2, 4}
        assert td.classify_zero_pattern(6, zp).tag == "TwoPrimeMixedCase"

    def test_unclassified_for_three_factors(self):
        assert td.classify_zero_pattern(
            12, td.zero_set(12, {0, 1})).tag == "Unclassified"

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_exhaustive_case_lists_never_error(self, data):
        n = data.draw(st.sampled_from([4, 8, 9, 25, 27, 6, 10, 15, 21]))
        E = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
        td.classify_zero_pattern(n, td.zero_set(n, E))  # must not raise

    def test_rational_function_patterns(self):
        vals = td.CyclicFunction.of([1, 1, 0, 2, 0, 1]).values
        pat = zero_pattern_of_poly(6, function_poly(vals))
        assert pat.support <= {l for l in range(6) if l % 2 == 0 or l % 3 == 0}


class TestExactHelpers:
    @pytest.mark.parametrize("x,want", [
        (3, Fraction(3)), (True, Fraction(1)), (np.int8(-4), Fraction(-4)),
        (np.uint64(2**63), Fraction(2**63)), ("5/6", Fraction(5, 6)),
        (0.5, Fraction(1, 2)), (np.float64(0.25), Fraction(1, 4)),
        (Fraction(2, 7), Fraction(2, 7))])
    def test_as_fraction(self, x, want):
        got = _as_fraction(x)
        assert got == want and type(got) is Fraction

    @pytest.mark.parametrize("x", [np.bool_(True), np.float32(0.5), None])
    def test_as_fraction_refuses(self, x):
        with pytest.raises(DomainError):
            _as_fraction(x)

    def test_cleared(self):
        vals = [Fraction(1, 4), Fraction(1, 6), Fraction(0), Fraction(-3)]
        assert _cleared(vals) == ([3, 2, 0, -36], 12)
        assert _cleared([]) == ([], 1)

    def test_two_primes(self):
        def prime(m):
            return m > 1 and all(m % k for k in range(2, m))
        for n in range(1, 400):
            pq = [(p, n // p) for p in range(2, n) if n % p == 0
                  and p < n // p and prime(p) and prime(n // p)]
            assert _two_primes(n) == (pq[0] if pq else None), n


SRC = pathlib.Path(td.__file__).parent


def _imported(module: str) -> set[str]:
    """The modules that the import statements of trideck.<module> name,
    trideck submodules as "trideck.<name>" and the package itself as
    "trideck".  The walk below does not follow "trideck", whose __init__
    imports every module."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [
                a.name for a in node.names]
            out.update(f"trideck.{m}" if (SRC / f"{m}.py").exists()
                       else "trideck" for m in names)
    return out


@pytest.mark.parametrize("module",
                         ["cyclotomic", "intervals", "config", "errors"])
def test_module_reaches_no_numpy(module):
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        seen.add(name)
        for m in _imported(name):
            assert m.split(".")[0] != "numpy", (module, name, m)
            sub = m.removeprefix("trideck.")
            if m.startswith("trideck.") and sub not in seen:
                todo.append(sub)
