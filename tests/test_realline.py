import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trideck as td
from trideck.errors import BudgetError, DomainError, InvalidExponentsError
from trideck.realline import _GRID_BLOCK, _psi, correlation_tensor


def random_grids(length=96, h=1 / 32):
    return st.lists(st.integers(0, 100), min_size=length, max_size=length) \
        .map(lambda xs: td.SampledFunction(h, 0.0, np.array(xs) / 25.0))


def _shift_stack(values, offsets):
    """S[a, t] = values[t + offsets[a]], zero off the grid: one zero-filled
    copy per offset."""
    L = len(values)
    S = np.zeros((len(offsets), L))
    for a, off in enumerate(offsets):
        lo, hi = max(0, -off), min(L, L - off)
        if lo < hi:
            S[a, lo:hi] = values[lo + off:hi + off]
    return S


def _direct_shift_scan(fv, gv):
    """shift_scan_distance by direct np.correlate over every lag."""
    nf2 = float(np.dot(fv, fv))
    best = np.inf
    for gg in (gv, 0.5 * (gv[:-1] + gv[1:])):
        # one sample has no half-bin grid: its correlation is zero
        corr = np.correlate(fv, gg, mode="full") if len(gg) else [0.0]
        d2 = nf2 + float(np.dot(gg, gg)) - 2 * float(np.max(corr))
        best = min(best, max(d2, 0.0))
    return float(np.sqrt(best) / np.sqrt(nf2))


def _three_deck_grid_fft(f):
    """three_deck_grid over the full offset range by the convolution
    theorem, on a grid zero-padded to twice the support."""
    L = len(f.values)
    M = 2 * L
    fh = np.fft.ifft(f.values, M) * M  # positive-exponent transform
    l = np.arange(M)
    B = fh[:, None] * fh[None, :] * fh[(-(l[:, None] + l[None, :])) % M]
    N = np.real(np.fft.fft2(B)) / M**2 * f.h
    offsets = np.arange(-(L - 1), L)
    return td.GridDeck(f.h, offsets, N[np.ix_(offsets % M, offsets % M)])


class TestSampledFunction:
    def test_validation(self):
        with pytest.raises(DomainError):
            td.SampledFunction(0.0, 0.0, np.ones(4))
        with pytest.raises(DomainError):
            td.SampledFunction(0.5, 0.0, np.array([1.0, -0.5]))

    def test_riemann_powers(self):
        g = td.SampledFunction(0.5, 0.0, np.array([2.0, 2.0]))
        assert g.riemann() == 2.0 and g.riemann(2) == 4.0

    def test_csv_roundtrip(self, tmp_path):
        f = td.SampledFunction(1 / 8, -1.0, np.array([0.0, 1.5, 2.25]))
        p = str(tmp_path / "f.csv")
        f.save_csv(p)
        g = td.SampledFunction.load_csv(p)
        assert g.h == f.h and g.origin == f.origin
        assert np.array_equal(g.values, f.values)

    @pytest.mark.parametrize("h, origin, bad", [
        (1 / 8, 0.0, np.nan), (1 / 8, 0.0, np.inf),
        (np.nan, 0.0, 1.0), (1 / 8, np.inf, 1.0)])
    def test_rejects_non_finite(self, h, origin, bad):
        with pytest.raises(DomainError):
            td.SampledFunction(h, origin, np.array([0.0, bad, 1.0]))


class TestGridDecks:
    @given(random_grids(length=48))
    @settings(max_examples=30, deadline=None)
    def test_direct_vs_fft(self, f):
        d1 = td.three_deck_grid(f)
        d2 = _three_deck_grid_fft(f)
        assert np.array_equal(d1.offsets, d2.offsets)
        scale = max(np.max(np.abs(d1.values)), 1e-12)
        assert np.max(np.abs(d1.values - d2.values)) < 1e-10 * scale

    @pytest.mark.parametrize("L, max_offset, stride", [
        (5, None, 1), (3 * _GRID_BLOCK + 7, 40, 1),
        (3 * _GRID_BLOCK + 7, 3 * _GRID_BLOCK + 50, 97)])
    def test_blocks_match_one_matmul(self, L, max_offset, stride):
        # the blocked sum against one product of full shift rows, with
        # offsets past the support when max_offset >= L
        vals = np.random.default_rng(L).random(L)
        f = td.SampledFunction(0.5, 0.0, vals)
        deck = td.three_deck_grid(f, max_offset, stride)
        S = _shift_stack(vals, deck.offsets)
        want = f.h * ((S * vals) @ S.T)
        assert np.max(np.abs(deck.values - want)) <= 1e-12 * np.max(want)
        if max_offset is not None and max_offset >= L:
            assert not np.any(deck.values[0])  # a shift past L reads zeros

    def test_grid_matches_exact_intervals(self):
        E = td.IntervalSet.of([(0, 1), ("3/2", 2)])
        h = 1 / 128
        f = td.sample_interval_indicator(E, h)
        deck = td.three_deck_grid(f, max_offset=int(0.75 / h))
        n_endpoints = 4
        for i, oi in enumerate(deck.offsets):
            for j, oj in enumerate(deck.offsets):
                exact = float(td.triple_correlation_exact(
                    E, F(int(oi)) * F(1, 128), F(int(oj)) * F(1, 128)))
                assert abs(deck.values[i, j] - exact) <= 2 * h * n_endpoints

    def test_deck_at_matches_grid(self):
        f = td.SampledFunction(1 / 16, 0.0, np.arange(8.0))
        deck = td.three_deck_grid(f)
        i = list(deck.offsets).index(2)
        j = list(deck.offsets).index(-3)
        assert td.deck_at(f, (2, -3)) == pytest.approx(deck.values[i, j])

    def test_deck_at_far_shifts_read_zeros(self):
        # shifts of len(v) bins or more read zeros from a padding of at most
        # len(v) on each side, not from a grid as wide as the shift
        f = td.SampledFunction(1 / 16, 0.0, np.arange(1.0, 9.0))
        tracemalloc.start()
        try:
            for bins in [(8,), (-8,), (10**12,), (-10**12,), (1, 10**12),
                         (-3, 8, 2), (10**30,), (-(10**30), 1)]:
                assert td.deck_at(f, bins) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5
        assert td.deck_at(f, (7,)) == f.h * 1.0 * 8.0

    @pytest.mark.parametrize("kwargs", [
        {"stride": 0}, {"stride": -1}, {"max_offset": -2}])
    def test_grid_arguments_in_range(self, kwargs):
        f = td.SampledFunction(1 / 16, 0.0, np.arange(8.0))
        with pytest.raises(DomainError):
            td.three_deck_grid(f, **kwargs)

    def test_grid_window_charged_before_allocated(self):
        # 2 * 10**15 offsets would need 16 PB: refused, not allocated
        f = td.SampledFunction(1 / 16, 0.0, np.arange(8.0))
        with pytest.raises(BudgetError):
            td.three_deck_grid(f, max_offset=10**15, budget=10**6)


class TestCounterexamplePairs:
    def test_psi_removable_singularity(self):
        x = np.array([0.0, 1e-9, 1.0])
        vals = _psi(x)
        assert vals[0] == 0.25
        assert vals[1] == pytest.approx(0.25, rel=1e-6)
        assert vals[2] == pytest.approx((np.sin(np.pi / 2) / np.pi) ** 2)

    def test_cos_pair_decks_agree(self):
        f, g = td.cos_pair(3, h=1 / 64, half_width=32.0, tail_tol=0.05)
        m, stride = int(round(1.5 * 64)), 8
        Nf = td.three_deck_grid(f, m, stride)
        Ng = td.three_deck_grid(g, m, stride)
        scale = np.max(np.abs(Nf.values))
        assert np.max(np.abs(Nf.values - Ng.values)) < 1e-9 * scale

    def test_cos_pair_not_translates(self):
        f, g = td.cos_pair(3, h=1 / 64, half_width=32.0, tail_tol=0.05)
        assert td.shift_scan_distance(f, g) > 0.05

    @pytest.mark.parametrize("k", [3, 4, 5, 7])
    @pytest.mark.parametrize("h", [1 / 256, 1 / 64, 0.01])
    def test_cos_pair_is_one_factor_riesz(self, k, h):
        pairs = td.cos_pair(k, h), td.riesz_pair([-1], [1], k, h)
        for f, g in zip(*pairs):
            assert (f.h, f.origin) == (g.h, g.origin)
            assert f.values.tobytes() == g.values.tobytes()

    def test_cos_pair_validation(self):
        with pytest.raises(DomainError):
            td.cos_pair(2)
        with pytest.raises(DomainError):
            td.cos_pair(3, half_width=4.0, tail_tol=1e-3)
        for half_width in (0.0, -5.0, np.nan, np.inf):
            with pytest.raises(DomainError, match="half-width"):
                td.cos_pair(3, half_width=half_width)
        for tail_tol in (0.0, -1.0, np.nan):
            with pytest.raises(DomainError, match="tail tolerance"):
                td.cos_pair(3, tail_tol=tail_tol)

    def test_riesz_pair_decks_agree(self):
        f, g = td.riesz_pair([1, -1], [0.5, 0.25], 3, tail_tol=0.05,
                             h=1 / 64, half_width=32.0)
        m, stride = 48, 8
        Nf = td.three_deck_grid(f, m, stride)
        Ng = td.three_deck_grid(g, m, stride)
        scale = np.max(np.abs(Nf.values))
        assert np.max(np.abs(Nf.values - Ng.values)) < 1e-9 * scale
        assert td.shift_scan_distance(f, g) > 0.05

    def test_riesz_validation(self):
        with pytest.raises(DomainError):
            td.riesz_pair([2], [0.5], 3)
        with pytest.raises(DomainError):
            td.riesz_pair([1, 1], [0.25, 0.5], 3)  # not nonincreasing
        with pytest.raises(DomainError):
            td.riesz_pair([1], [0.5, 0.5], 3)

    def test_shift_scan_matches_direct_correlation(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            fv, gv = (rng.random(rng.integers(1, 80)) for _ in range(2))
            got = td.shift_scan_distance(td.SampledFunction(0.1, 0.0, fv),
                                         td.SampledFunction(0.1, 0.0, gv))
            assert got == pytest.approx(_direct_shift_scan(fv, gv),
                                        rel=1e-12)

    def test_shift_scan_zero_for_translates(self):
        vals = np.zeros(512)
        vals[100:200] = 1.0 + np.sin(np.arange(100) / 7.0) ** 2
        f = td.SampledFunction(1 / 64, 0.0, vals)
        shifted = td.SampledFunction(f.h, f.origin, np.roll(vals, 37))
        assert td.shift_scan_distance(f, shifted) < 1e-9


class TestStability:
    def test_indicator_passes(self):
        g = td.SampledFunction(1 / 256, 0.0, np.ones(256))
        rep = td.indicator_stability_check(g)
        assert rep.is_indicator_like and abs(rep.cs_defect) < 1e-12

    def test_scaled_indicator_fails(self):
        for lam in (0.25, 0.5, 2.0):
            g = td.SampledFunction(1 / 256, 0.0, lam * np.ones(512))
            assert not td.indicator_stability_check(g).is_indicator_like

    def test_two_level_fails(self):
        vals = np.concatenate([np.ones(256), 0.1 * np.ones(256)])
        g = td.SampledFunction(1 / 256, 0.0, vals)
        assert not td.indicator_stability_check(g).is_indicator_like

    @given(random_grids())
    @settings(max_examples=120, deadline=None)
    def test_cs_defect_nonpositive(self, g):
        assert td.indicator_stability_check(g).cs_defect <= 1e-12


class TestNormInequality:
    def test_equality_case(self):
        f = td.SampledFunction(1 / 64, 0.0, np.ones(64))
        res = td.norm_inequality_test([f, f, f], 1, (1, 1, 1))
        assert res.holds
        assert res.lhs == pytest.approx(res.rhs) == pytest.approx(1.0)

    def test_exponent_gate(self):
        f = td.SampledFunction(1 / 64, 0.0, np.ones(64))
        with pytest.raises(InvalidExponentsError):
            td.norm_inequality_test([f, f, f], 2, (1, 1, 1))
        with pytest.raises(InvalidExponentsError):
            td.norm_inequality_test([f, f, f], 1, (1, 1))
        with pytest.raises(InvalidExponentsError):
            td.norm_inequality_test([f, f, f], "1/2", (1, 1, 1))

    def test_exact_rational_gate(self):
        f = td.SampledFunction(1 / 32, 0.0, np.ones(32))
        # 1 + 2/(3/2) = 7/3 = 3 * (7/9): exact rational check must accept
        td.norm_inequality_test([f, f, f], "3/2", ("9/7", "9/7", "9/7"))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("L", [3, 4])
    def test_correlation_tensor_direct(self, k, L):
        # N(x_1..x_k) = h sum_t f_0(t) prod_j f_j(t - x_j), zero off the grid
        rng = np.random.default_rng(10 * k + L)
        fs = [td.SampledFunction(0.5, 0.0, rng.random(L)) for _ in range(k + 1)]
        offsets = range(-(L - 1), L)
        want = np.zeros((2 * L - 1,) * k)
        for idx in np.ndindex(want.shape):
            xs = [offsets[i] for i in idx]
            for t in range(L):
                term = fs[0].values[t]
                for f, x in zip(fs[1:], xs):
                    term *= f.values[t - x] if 0 <= t - x < L else 0.0
                want[idx] += 0.5 * term
        got = correlation_tensor(fs)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)

    @given(st.lists(random_grids(length=48), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_never_violated(self, fs):
        assert td.norm_inequality_test(fs, 1, (1, 1, 1)).holds
        assert td.norm_inequality_test(
            fs, "3/2", ("9/7", "9/7", "9/7")).holds


class TestContinuity:
    def test_indicator_closed_form(self):
        f = td.SampledFunction(1 / 256, 0.0, np.ones(256))
        h = f.h
        for rho, dev in td.continuity_probe(f, 2, [0.2, 0.1, 0.05, 0.025]):
            assert abs(dev - rho) <= 2 * h, rho

    def test_negative_radius_is_refused(self):
        f = td.SampledFunction(1 / 64, 0.0, np.ones(64))
        for radii in ([-0.2, 0.1], [np.nan]):
            with pytest.raises(DomainError, match="nonnegative"):
                td.continuity_probe(f, 2, radii)

    def test_zero_radius(self):
        f = td.SampledFunction(1 / 64, 0.0, np.ones(64))
        (_, dev), = td.continuity_probe(f, 2, [0.0])
        assert dev == 0.0

    def test_overflow_is_a_domain_error(self):
        f = td.SampledFunction(1 / 8, 0.0, np.array([1.0, 1e200, 1.0]))
        with pytest.raises(DomainError, match="overflow"):
            td.continuity_probe(f, 2, [0.25])

    def test_long_plateau_boundary_effect(self):
        f = td.SampledFunction(1 / 64, 0.0, np.ones(64 * 8))  # chi_[0,8]
        (_, dev), = td.continuity_probe(f, 2, [0.1])
        assert dev == pytest.approx(0.1, abs=2 / 64)
