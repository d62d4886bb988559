from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trideck as td
from trideck.errors import DomainError


def random_interval_sets():
    # sorted cut points -> disjoint intervals with rational endpoints
    return st.lists(st.integers(0, 400), min_size=2, max_size=12,
                    unique=True).map(
        lambda cuts: td.IntervalSet.of(
            [(F(a, 16), F(b, 16))
             for a, b in zip(sorted(cuts)[::2], sorted(cuts)[1::2])]))


class TestIntervalSet:
    def test_measure_and_translate(self):
        E = td.IntervalSet.of([(0, 1), ("3/2", 2)])
        assert E.measure == F(3, 2)
        assert E.translate("1/2").intervals[0] == (F(1, 2), F(3, 2))

    def test_validation(self):
        with pytest.raises(DomainError):
            td.IntervalSet.of([(1, 1)])
        with pytest.raises(DomainError):
            td.IntervalSet.of([(0, 1), (1, 2)])  # adjacent, not disjoint
        with pytest.raises(DomainError):
            td.IntervalSet.of([(0, 2), (1, 3)])

    def test_contains_open(self):
        E = td.IntervalSet.of([(0, 1)])
        assert E.contains("1/2") and not E.contains(0) and not E.contains(1)

    def test_json_roundtrip(self):
        E = td.IntervalSet.of([(0, "1/3"), (1, 2)])
        assert td.IntervalSet.from_json_dict(E.to_json_dict()) == E

    @pytest.mark.parametrize("doc", [
        {}, [1], "x", {"intervals": 3}, {"intervals": [[0, 1, 2]]},
        {"intervals": [[0]]}, {"intervals": [(0, 1, 2)]},
        {"intervals": [[True, 2]]}, {"intervals": [[0, float("inf")]]},
        {"intervals": [[float("nan"), 1]]}])
    def test_json_loader_rejects_malformed(self, doc):
        with pytest.raises(DomainError):
            td.IntervalSet.from_json_dict(doc)


class TestTripleCorrelation:
    def test_single_interval_closed_form(self):
        E = td.IntervalSet.of([(0, 1)])
        # N(x,y) = max(0, 1 - max(x,y)) for 0 <= x <= y
        assert td.triple_correlation_exact(E, F(1, 4), F(1, 2)) == F(1, 2)
        assert td.triple_correlation_exact(E, 0, 0) == 1
        assert td.triple_correlation_exact(E, 0, 2) == 0

    def test_worked_example(self):
        E = td.IntervalSet.of([(0, 1), ("3/2", 2)])
        assert td.triple_correlation_exact(E, F(1, 4), F(1, 2)) == F(1, 2)

    @given(random_interval_sets(), st.integers(-40, 40), st.integers(-40, 40))
    @settings(max_examples=120, deadline=None)
    def test_properties(self, E, xs, ys):
        x, y = F(xs, 16), F(ys, 16)
        N = td.triple_correlation_exact
        assert N(E, x, y) == N(E, y, x)
        assert 0 <= N(E, x, y) <= E.measure
        assert N(E, 0, 0) == E.measure
        # translation invariance
        assert N(E.translate(F(7, 16)), x, y) == N(E, x, y)
        # G_E sandwich
        G = td.gap_functional(E, x, y)
        assert 0 <= G <= N(E, 0, y)


class TestGaps:
    def test_profile(self):
        E = td.IntervalSet.of([(0, 1), (2, 3), (F(7, 2), 4)])
        prof = td.gap_profile(E)
        assert prof.min_gap == F(1, 2)
        assert prof.gap_list == (F(1), F(1, 2))

    def test_single_interval_no_gap(self):
        assert td.gap_profile(
            td.IntervalSet.of([(0, 1)])).min_gap is None


class TestPartialX:
    def test_boundary_formula(self):
        E = td.IntervalSet.of([(0, 1), ("3/2", 2)])
        assert td.partial_x_deck(E, F(-1, 4), F(1, 8)) == 2

    def test_endpoint_hit_with_equal_one_sided_derivatives(self):
        # a_k - x + y lands on an endpoint for two intervals: 13/16 - 3/4
        # on the right end 1/16, and 77/8 + 1/8 - 3/4 on the left end 9;
        # one counts from the right, the other from the left
        E = td.IntervalSet.of([(0, "1/16"), ("11/16", "13/16"),
                               (9, "145/16"), ("77/8", "157/16")])
        assert td.partial_x_deck(E, F(-1, 8), F(-3, 4)) == 1

    def test_unequal_one_sided_derivatives_raise(self):
        # a_1 - x + y = 3/2 is the left end of [3/2, 2]
        E = td.IntervalSet.of([(0, 1), ("3/2", 2)])
        with pytest.raises(DomainError, match="left derivative is 1 and "
                                              "the right derivative is 0"):
            td.partial_x_deck(E, F(-1, 4), F(5, 4))

    def test_regime_enforced(self):
        E = td.IntervalSet.of([(0, 1), (2, 3)])
        with pytest.raises(DomainError):
            td.partial_x_deck(E, F(1, 4), 0)  # x must be negative
        with pytest.raises(DomainError):
            td.partial_x_deck(E, F(-3, 2), 0)  # |x| >= Gamma_E

    @given(random_interval_sets(), st.integers(1, 7), st.integers(-30, 30))
    @settings(max_examples=100, deadline=None)
    def test_matches_central_difference(self, E, xnum, ys):
        prof = td.gap_profile(E)
        gamma = prof.min_gap
        x = -min(F(xnum, 8), (gamma if gamma is not None else F(10)) * 3
                 / 4, F(10))
        if x == 0 or (gamma is not None and -x >= gamma):
            return
        y = F(ys, 16)
        h = F(1, 10**7)
        mid = td.triple_correlation_exact(E, x, y)
        left = (mid - td.triple_correlation_exact(E, x - h, y)) / h
        right = (td.triple_correlation_exact(E, x + h, y) - mid) / h
        try:
            val = td.partial_x_deck(E, x, y)
        except DomainError:
            # x sits exactly on a breakpoint of the piecewise map
            assert left != right, (E, x, y)
            return
        assert left == right == val, (E, x, y)


class TestTranslateEqual:
    def test_exact_shift(self):
        E = td.IntervalSet.of([(0, 1), (2, 3)])
        assert td.translate_equal_sets(E, E.translate(F(5, 7))) == F(-5, 7)

    def test_none_when_shapes_differ(self):
        E = td.IntervalSet.of([(0, 1), (2, 3)])
        G = td.IntervalSet.of([(0, 1), (2, F(7, 2))])
        assert td.translate_equal_sets(E, G) is None

    def test_tolerance(self):
        E = td.IntervalSet.of([(0, 1)])
        G = td.IntervalSet.of([(F(1, 1000), 1)])
        assert td.translate_equal_sets(E, G) is None
        assert td.translate_equal_sets(E, G, tol=F(1, 100)) is not None

    def test_negative_tolerance_is_refused(self):
        # every |difference| > tol held at tol < 0, so E was no translate
        # of itself
        E = td.IntervalSet.of([(0, 1)])
        with pytest.raises(DomainError, match="tolerance must be >= 0"):
            td.translate_equal_sets(E, E, tol=-1)
