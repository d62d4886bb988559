"""Acceptance gate: fourteen numbered criteria, each printing one PASS/FAIL
line.  Tolerances and runtime budgets are pinned in the assertions.

Criterion 10's refinement clause checks invariance, not a convergence rate.
psi-hat is supported on |xi| <= 1/2 and cos(4 pi x) shifts it by +-2, so the
cosine pair is band-limited to |xi| <= 5/2 and every deck integrand
f(t) f(t+x) f(t+y) to |xi| <= 15/2, far below the grid rate 1/h.  By Poisson
summation the left Riemann sum is then alias-free: what remains is the
truncation of the grid at +-64, which does not depend on h.  The clause
therefore asks that, for each of f and g, the decks at h = 1/256 and
h = 1/512 (on the same x-offsets) agree entry by entry within 1e-12 of the
deck's scale, and that the inter-pair deck error stays within 1e-12 at both
steps.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

import trideck as td
from trideck.cyclotomic import function_poly, zero_pattern_of_poly


def _report(num: int, label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    return ok


def test_criterion_01_fft_vs_exact_decks():
    rng = np.random.Generator(np.random.Philox(101))
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 33))
        num = rng.integers(0, 12, size=n)
        den = int(rng.integers(1, 8))
        f = td.CyclicFunction.of([F(int(v), den) for v in num])
        exact = td.k_deck(f, 3).as_floats()
        fast = td.three_deck_fft(f).values
        scale = max(np.max(np.abs(exact)), 1e-30)
        worst = max(worst, float(np.max(np.abs(exact - fast)) / scale))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 30
    assert _report(1, f"FFT/exact deck equivalence (max rel err "
                      f"{worst:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_02_n7_exhaustive():
    t0 = time.monotonic()
    rep = td.exhaustive_determinacy(7, 3)
    elapsed = time.monotonic() - t0
    ok = rep.total_sets == 128 and not rep.ambiguous_classes and elapsed < 5
    assert _report(2, f"n=7 exhaustive 3-deck uniqueness ({elapsed:.2f}s)",
                   ok)


def test_criterion_03_n9_exhaustive():
    t0 = time.monotonic()
    rep = td.exhaustive_determinacy(9, 3)
    elapsed = time.monotonic() - t0
    ok = rep.total_sets == 512 and not rep.ambiguous_classes and elapsed < 30
    assert _report(3, f"n=9 exhaustive 3-deck uniqueness ({elapsed:.2f}s)",
                   ok)


def test_criterion_04_n15_exhaustive():
    t0 = time.monotonic()
    rep = td.exhaustive_determinacy(15, 3)
    elapsed = time.monotonic() - t0
    ok = rep.total_sets == 32768 and not rep.ambiguous_classes \
        and elapsed < 600
    assert _report(4, f"n=15 exhaustive 3-deck uniqueness ({elapsed:.2f}s)",
                   ok)


def test_criterion_05_counterexample_pair():
    t0 = time.monotonic()
    pair = td.gm_counterexample(2, 3, 3)
    f = td.CyclicFunction.indicator(18, pair.E)
    g = td.CyclicFunction.indicator(18, pair.F)
    decks3_equal = td.deck_equal(td.k_deck(f, 3), td.k_deck(g, 3))
    not_translates = (td.equal_up_to_translation(f, g) is None
                      and td.equal_up_to_translation(g, f) is None)
    decks4_differ = not td.deck_equal(td.k_deck(f, 4), td.k_deck(g, 4))
    elapsed = time.monotonic() - t0
    ok = decks3_equal and not_translates and decks4_differ and elapsed < 10
    assert _report(5, "n=18 pair: equal 3-decks, not translates, 4-decks "
                      f"differ ({elapsed:.2f}s)", ok)


def test_criterion_06_n18_sweep_contains_pair():
    t0 = time.monotonic()
    pair = td.gm_counterexample(2, 3, 3)
    orbit_e = {frozenset((x + t) % 18 for x in pair.E) for t in range(18)}
    orbit_f = {frozenset((x + t) % 18 for x in pair.F) for t in range(18)}
    rep = td.exhaustive_determinacy(18, 3)
    elapsed = time.monotonic() - t0
    hit = any(any(frozenset(s) in orbit_e for s in cls)
              and any(frozenset(s) in orbit_f for s in cls)
              for cls in rep.ambiguous_classes)
    ok = hit and elapsed < 1800
    assert _report(6, f"n=18 sweep: {len(rep.ambiguous_classes)} ambiguous "
                      f"classes, pair orbit found ({elapsed:.1f}s)", ok)


def test_criterion_07_reconstruction_roundtrip():
    rng = np.random.Generator(np.random.Philox(202))
    t0 = time.monotonic()
    good = 0
    for _ in range(100):
        while True:
            n = int(rng.integers(3, 33))
            f = td.CyclicFunction.of(
                [int(v) for v in rng.integers(0, 6, size=n)])
            if not zero_pattern_of_poly(n, function_poly(f.values)).zeros:
                break
        rep = td.reconstruct_from_deck(td.k_deck(f, 3))
        cand = td.CyclicFunction.of(
            [round(float(v)) for v in rep.candidates[0].values])
        if td.equal_up_to_translation(f, cand) is not None:
            good += 1
    elapsed = time.monotonic() - t0
    ok = good == 100 and elapsed < 60
    assert _report(7, f"reconstruction roundtrip {good}/100 "
                      f"({elapsed:.1f}s)", ok)


def test_criterion_08_pq_solution_family():
    t0 = time.monotonic()
    f = td.CyclicFunction.of([1, 1, 0, 2, 0, 1])
    sols = td.solutions_pq(f, 3, 2)
    deck = td.k_deck(f, 3)
    decks_equal = all(td.deck_equal(td.k_deck(g, 3), deck) for g in sols)
    # for this input the family is exactly the 6 translates of f
    shifts = {td.equal_up_to_translation(f, g) for g in sols}
    elapsed = time.monotonic() - t0
    ok = len(sols) == 6 and decks_equal and shifts == set(range(6)) \
        and elapsed < 1
    assert _report(8, f"pq family: 6 members, shared exact deck "
                      f"({elapsed:.3f}s)", ok)


def test_criterion_09_zero_proportion():
    t0 = time.monotonic()
    v5 = td.survey_zero_proportion(5).exact
    v7 = td.survey_zero_proportion(7).exact
    s11 = td.survey_zero_proportion(11, samples=20000, seed=1,
                                    mode="sampled").proportion
    s13 = td.survey_zero_proportion(13, samples=20000, seed=1,
                                    mode="sampled").proportion
    elapsed = time.monotonic() - t0
    ok = (v5 == F(2, 32) and v7 == F(2, 128)
          and s11 < 2 / 32 and s13 < 2 / 32 and elapsed < 60)
    assert _report(9, f"zero proportions: 2/32, 2/128, sampled {s11:.4f}, "
                      f"{s13:.4f} ({elapsed:.1f}s)", ok)


def test_criterion_10_cosine_pair_grid(monkeypatch):
    monkeypatch.setenv("TRIDECK_BUDGET", str(2 * 10**8))
    t0 = time.monotonic()
    errs, decks = {}, {}
    for h in (1 / 256, 1 / 512):
        f, g = td.cos_pair(3, h, 64.0)
        m, stride = int(round(2.0 / h)), int(round(0.125 / h))
        Nf = td.three_deck_grid(f, m, stride)
        Ng = td.three_deck_grid(g, m, stride)
        scale = float(np.max(np.abs(Nf.values)))
        errs[h] = float(np.max(np.abs(Nf.values - Ng.values))) / scale
        decks[h] = (Nf, Ng)
    margin = td.shift_scan_distance(*td.cos_pair(3, 1 / 256, 64.0))
    elapsed = time.monotonic() - t0
    agree = errs[1 / 256] <= 1e-4
    pairs = list(zip(decks[1 / 256], decks[1 / 512]))
    same_offsets = all(np.array_equal(a.offsets * a.h, b.offsets * b.h)
                       for a, b in pairs)
    refinement = max(float(np.max(np.abs(a.values - b.values)))
                     for a, b in pairs) / scale
    refines = (same_offsets and refinement <= 1e-12
               and max(errs.values()) <= 1e-12)
    ok = agree and refines and margin > 0.05 and elapsed < 300
    assert _report(10, f"cos pair: err(1/256)={errs[1 / 256]:.2e}, "
                       f"err(1/512)={errs[1 / 512]:.2e}, "
                       f"refinement={refinement:.2e}, "
                       f"margin={margin:.3f} ({elapsed:.1f}s)", ok)


def test_criterion_11_stability():
    t0 = time.monotonic()
    sets = [td.IntervalSet.of(p) for p in
            ([(0, 1)], [(0, 1), ("3/2", 2)], [("1/4", "3/4"), (1, 3)])]
    indicators_ok = all(
        td.indicator_stability_check(
            td.sample_interval_indicator(E, 1 / 512), tol=1e-2
        ).is_indicator_like
        for E in sets)
    scaled_fail = all(
        not td.indicator_stability_check(
            td.SampledFunction(1 / 256, 0.0, lam * np.ones(256)),
            tol=1e-2).is_indicator_like
        for lam in (0.25, 0.5, 2.0))
    rng = np.random.Generator(np.random.Philox(303))
    defects_ok = True
    for _ in range(500):
        vals = rng.uniform(0, 3, size=64)
        rep = td.indicator_stability_check(
            td.SampledFunction(1 / 64, 0.0, vals))
        defects_ok &= rep.cs_defect <= 1e-10
    elapsed = time.monotonic() - t0
    ok = indicators_ok and scaled_fail and defects_ok and elapsed < 60
    assert _report(11, f"stability: indicators pass, scalings fail, "
                       f"defect<=0 on 500 grids ({elapsed:.1f}s)", ok)


def test_criterion_12_interval_exactness():
    rng = np.random.Generator(np.random.Philox(404))
    t0 = time.monotonic()
    mc_ok = True
    for _ in range(50):
        cuts = np.sort(rng.choice(np.arange(1, 160), size=6, replace=False))
        E = td.IntervalSet.of([(F(int(a), 16), F(int(b), 16))
                               for a, b in zip(cuts[::2], cuts[1::2])])
        x = F(int(rng.integers(-16, 17)), 16)
        y = F(int(rng.integers(-16, 17)), 16)
        exact = float(td.triple_correlation_exact(E, x, y))
        lo = float(min(a for a, _ in E.intervals)) - 2.5
        hi = float(max(b for _, b in E.intervals)) + 2.5
        M = 10**6
        t = rng.uniform(lo, hi, size=M)
        inside = np.zeros(M, dtype=bool)

        def member(pts):
            m = np.zeros(len(pts), dtype=bool)
            for a, b in E.intervals:
                m |= (pts > float(a)) & (pts < float(b))
            return m

        inside = member(t) & member(t + float(x)) & member(t + float(y))
        p = inside.mean()
        est = p * (hi - lo)
        sigma = (hi - lo) * np.sqrt(max(p * (1 - p), 1e-12) / M)
        mc_ok &= abs(est - exact) <= 3 * sigma + 1e-9
    ddx_ok = 0
    tried = 0
    while tried < 100:
        cuts = np.sort(rng.choice(np.arange(1, 160), size=6, replace=False))
        E = td.IntervalSet.of([(F(int(a), 16), F(int(b), 16))
                               for a, b in zip(cuts[::2], cuts[1::2])])
        gamma = td.gap_profile(E).min_gap
        bound = gamma if gamma is not None else F(2)
        x = -min(bound, F(2)) * F(int(rng.integers(1, 16)), 16)
        if x == 0 or (gamma is not None and -x >= gamma):
            continue
        # generic y off the breakpoint lattice (sixteenths)
        y = F(int(rng.integers(-32, 33)), 16) + F(1, 97)
        tried += 1
        val = td.partial_x_deck(E, x, y)
        h = F(1, 10**6)
        num = (td.triple_correlation_exact(E, x + h, y)
               - td.triple_correlation_exact(E, x - h, y)) / (2 * h)
        if abs(float(num) - val) <= 1e-4:
            ddx_ok += 1
    elapsed = time.monotonic() - t0
    ok = mc_ok and ddx_ok == 100 and elapsed < 300
    assert _report(12, f"intervals: MC 3-sigma on 50 sets, ddx "
                       f"{ddx_ok}/100 within 1e-4 ({elapsed:.1f}s)", ok)


def test_criterion_13_norm_inequality_suite():
    rng = np.random.Generator(np.random.Philox(505))
    t0 = time.monotonic()
    violations = 0
    gate_ok = True
    try:
        f = td.SampledFunction(1 / 32, 0.0, np.ones(32))
        td.norm_inequality_test([f, f, f], 2, (1, 1, 1))
        gate_ok = False
    except td.InvalidExponentsError:
        pass
    for _ in range(200):
        fs = []
        for _ in range(3):
            vals = np.zeros(96)
            for _ in range(int(rng.integers(1, 5))):
                a, b = sorted(rng.integers(0, 96, size=2))
                vals[a:b + 1] += rng.uniform(0.1, 2.0)
            fs.append(td.SampledFunction(1 / 32, 0.0, vals))
        for r, ps in ((1, (1, 1, 1)), ("3/2", ("9/7", "9/7", "9/7"))):
            if not td.norm_inequality_test(fs, r, ps).holds:
                violations += 1
    elapsed = time.monotonic() - t0
    ok = gate_ok and violations == 0 and elapsed < 120
    assert _report(13, f"norm inequality: gate enforced, 0 violations over "
                       f"200 tuples x 2 configs ({elapsed:.1f}s)", ok)


def test_criterion_14_continuity_probe():
    t0 = time.monotonic()
    h = 1 / 256
    f = td.SampledFunction(h, 0.0, np.ones(256))  # chi_[0,1]
    devs = td.continuity_probe(f, 2, [0.2, 0.1, 0.05, 0.025])
    close = all(abs(dev - rho) <= 2 * h for rho, dev in devs)
    elapsed = time.monotonic() - t0
    ok = close and elapsed < 10
    assert _report(14, f"continuity probe deviations match rho within 2h "
                       f"({elapsed:.2f}s)", ok)
