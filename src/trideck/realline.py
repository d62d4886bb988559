"""Sampled-grid 3-decks on R, cosine/Riesz counterexample pairs, the
indicator stability check and the correlation norm-inequality harness.

Quadrature is the left-endpoint Riemann sum everywhere; convergence is
established by refinement studies, not higher-order rules.  For integrands
band-limited to |xi| < 1/h (the cosine pairs below) the sum is alias-free,
so refinement shows invariance in h rather than O(h) decay.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .config import charge
from .cyclotomic import _limit_denominator
from .errors import DomainError, InvalidExponentsError
from .intervals import IntervalSet

_GRID_BLOCK = 512  # samples per block of the grid deck's sum over t


def _check_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0):
        raise DomainError("grid step must be positive and finite")


@dataclasses.dataclass(frozen=True, eq=False)
class SampledFunction:
    """Nonnegative samples on a uniform grid; implicit zeros outside."""

    h: float
    origin: float
    values: np.ndarray

    def __post_init__(self):
        _check_step(self.h)
        if not (math.isfinite(self.origin)
                and np.all(np.isfinite(self.values))):
            raise DomainError("grid origin and samples must be finite")
        if np.any(self.values < 0):
            raise DomainError("sampled values must be nonnegative")

    def riemann(self, power: float = 1.0) -> float:
        """h * sum of values**power; inf when that overflows float64, which
        callers check for."""
        with np.errstate(over="ignore"):
            return float(self.h * np.sum(self.values**power))

    def save_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.h!r},{self.origin!r},{len(self.values)}\n")
            for v in self.values:
                fh.write(f"{float(v)!r}\n")

    @classmethod
    def load_csv(cls, path: str) -> "SampledFunction":
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if len(header) != 3:
                raise DomainError(f"{path}: expected a first line "
                                  "h,origin,count")
            h, origin, n = header
            vals = np.array([float(line) for line in fh], dtype=np.float64)
        if len(vals) != int(n):
            raise DomainError(f"expected {n} samples, got {len(vals)}")
        return cls(float(h), float(origin), vals)


@dataclasses.dataclass(frozen=True, eq=False)
class GridDeck:
    """3-deck values N(x,y) at offsets (i*h, j*h), i,j in `offsets` (bins)."""

    h: float
    offsets: np.ndarray  # integer bin offsets, ascending
    values: np.ndarray  # shape (len(offsets), len(offsets))


def _shift_windows(v: np.ndarray, offsets: np.ndarray,
                   width: int) -> tuple[np.ndarray, np.ndarray]:
    """A read-only view W over one zero-padded copy of v, and a row per
    offset: W[rows[a] + s, j] = v[s + j + offsets[a]], zero off v, for
    s + j < len(v).  A shift by len(v) or more bins reads only zeros, so
    the padding is at most len(v) on each side and such offsets are
    clipped to it."""
    L = len(v)
    pad = min(int(np.max(np.abs(offsets), initial=0)), L)
    padded = np.zeros(L + 2 * pad + width)
    padded[pad:pad + L] = v
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)
    return windows, np.clip(offsets, -pad, pad) + pad


def three_deck_grid(f: SampledFunction, max_offset: Optional[int] = None,
                    stride: int = 1) -> GridDeck:
    """Left-Riemann 3-deck N(i,j) = h * sum_t f_t f_{t+i} f_{t+j} on the
    zero-padded grid, at the bin offsets stride * (-J..J), the multiples of
    the stride within +-max_offset (default: the full support width).

    The sum over t runs in blocks of _GRID_BLOCK samples, so each block's
    shift rows S[a, s] = f_{t+s+offsets[a]} stay in cache; they are
    _shift_windows rows.

    N(x, y) depends only on the multiset {0, x, y} up to translation, and
    the translate that puts its middle point at 0 is {-a, 0, b}, with
    a = mid - lo and b = hi - mid for lo <= mid <= hi the sorted {0, x, y}.
    0 is on the offset grid and a, b are at most J strides, so every value
    is in the quadrant x <= 0 <= y: (J+1)^2 sums, not (2J+1)^2."""
    if stride < 1:
        raise DomainError(f"grid deck stride must be >= 1, got {stride}")
    v = f.values
    L = len(v)
    m = L - 1 if max_offset is None else int(max_offset)
    if m < 0:
        raise DomainError(f"grid deck max_offset must be >= 0, got {m}")
    J = m // stride
    cost = (2 * J + 1) ** 2 * L  # charged before allocated
    charge(cost, f"grid deck cost {cost} exceeds budget")
    if J * stride >= 2**63:
        raise DomainError(f"grid deck offsets reach {J * stride}, past int64")
    # with J = 0 the stride scales no offset, and may itself be past int64
    offsets = np.arange(-J, J + 1) * (stride if J else 0)
    windows, rows = _shift_windows(v, offsets, _GRID_BLOCK)
    # rows x = -J..0 and columns y = 0..J strides
    N = np.zeros((J + 1, J + 1))
    for t in range(0, L, _GRID_BLOCK):
        w = v[t:t + _GRID_BLOCK]
        S = windows[rows + t, :len(w)]
        N += (S[:J + 1] * w) @ S[J:].T
    # in strides, N(x, y) = N(-a, b), at [J - a, b] here
    x = np.arange(-J, J + 1)[:, None]
    y = x.T
    lo = np.minimum(np.minimum(x, y), 0)
    hi = np.maximum(np.maximum(x, y), 0)
    mid = x + y - lo - hi
    return GridDeck(f.h, offsets, f.h * N[J - mid + lo, hi - mid])


def deck_at(f: SampledFunction, bins: Sequence[int]) -> float:
    """N_f at a single offset tuple (any deck order), bins in grid units."""
    v = f.values
    L = len(v)
    # a shift by L or more reads zeros; clipped first, every bin fits int64
    clipped = np.array([min(max(int(b), -L), L) for b in bins], dtype=int)
    windows, rows = _shift_windows(v, clipped, L)
    prod = v.copy()
    for r in rows:
        prod *= windows[r]
    return float(f.h * np.sum(prod))


# ---------------------------------------------------------------------------
# Counterexample generators.

def _psi(x: np.ndarray) -> np.ndarray:
    """(sin(pi x / 2) / (pi x))^2 with the removable singularity psi(0)=1/4."""
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at x = 0
        out = (np.sin(np.pi * x / 2) / (np.pi * x)) ** 2
    out[x == 0] = 0.25
    return out


def _check_tail(half_width: float, tail_tol: float) -> None:
    if not (math.isfinite(half_width) and half_width > 0):
        raise DomainError("grid half-width must be positive and finite")
    if not tail_tol > 0:  # NaN fails too
        raise DomainError("tail tolerance must be positive")
    # psi <= 1/(pi x)^2, sup of the trig factors is 2.
    bound = 4.0 / (np.pi**2 * half_width)
    if bound > tail_tol:
        raise DomainError(
            f"insufficient grid extent: truncated mass bound {bound:.3g} "
            f"exceeds {tail_tol:.3g}")


def cos_pair(k: int, h: float = 1 / 256, half_width: float = 64.0,
             tail_tol: float = 1e-2) -> tuple[SampledFunction,
                                              SampledFunction]:
    """The pair (1 +- cos((k+1) pi x)) psi(x): same k-deck, not translates.

    psi-hat is supported on |xi| <= 1/2, so both functions are band-limited
    to |xi| <= (k+2)/2 and each 3-deck integrand to |xi| <= 3(k+2)/2.  For
    h < 2/(3(k+2)) the grid 3-deck is therefore alias-free (Poisson
    summation): the only error left is the truncation at +-half_width, which
    does not depend on h.
    """
    return riesz_pair([-1], [1], k, h, half_width, tail_tol)


def riesz_pair(signs: Sequence[int], amplitudes: Sequence[float], k: int,
               h: float = 1 / 256, half_width: float = 64.0,
               tail_tol: float = 1e-2) -> tuple[SampledFunction,
                                                SampledFunction]:
    """Truncated Riesz products psi * prod(1 + a_i eps_i cos((k+1)^i pi x)).

    Returns the all-plus sign choice and the given sign choice; any flipped
    sign yields an equal k-deck without being a translate.
    """
    if k < 3:
        raise DomainError(f"deck order must be >= 3, got {k}")
    if len(signs) != len(amplitudes):
        raise DomainError("signs and amplitudes must have equal length")
    if any(s not in (-1, 1) for s in signs):
        raise DomainError("signs must be +-1")
    amps = [float(a) for a in amplitudes]
    if any(a <= 0 or a > 1 for a in amps) or any(
            b > a for a, b in zip(amps, amps[1:])):
        raise DomainError("amplitudes must be in (0,1] and nonincreasing")
    _check_tail(half_width, tail_tol)
    x = -half_width + h * np.arange(int(round(2 * half_width / h)) + 1)
    psi = _psi(x)
    fvals, gvals = psi.copy(), psi.copy()
    for i, (eps, a) in enumerate(zip(signs, amps), start=1):
        c = a * np.cos((k + 1) ** i * np.pi * x)
        fvals *= 1 + c
        gvals *= 1 + eps * c
    return (SampledFunction(h, -half_width, fvals),
            SampledFunction(h, -half_width, gvals))


def _smooth_size(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a transform length the FFT does fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << max(-(-n // p) - 1, 0).bit_length())
            p *= 3
        p5 *= 5
    return best


def _subtract_cyclic(buf: np.ndarray, start: int, vals: np.ndarray) -> None:
    """buf[(start + j) % len(buf)] -= vals[j], for len(vals) <= len(buf)."""
    start %= len(buf)
    cut = len(buf) - start
    buf[start:start + len(vals)] -= vals[:cut]
    buf[:max(len(vals) - cut, 0)] -= vals[cut:]


def shift_scan_distance(f: SampledFunction, g: SampledFunction) -> float:
    """min over integer-grid shifts (and half-bin offsets) of
    ||f - g(.-a)||_2 / ||f||_2; the non-translate certificate at grid scale.

    One rFFT correlation C[tau] = sum_t f_{t+tau} g_t gives every whole-bin
    lag; its length is the least 5-smooth size that lets no lag wrap.  The
    half-bin grid gg_t = (g_t + g_{t+1}) / 2, t < lg - 1, then correlates to
    (C[tau] + C[tau-1]) / 2 less the two end terms
    (f_{tau+lg-1} g_{lg-1} + f_{tau-1} g_0) / 2, with f zero off its grid;
    the identity holds on the cyclic lags too, so no second transform runs."""
    fv, gv = f.values, g.values
    lf, lg = len(fv), len(gv)
    size = _smooth_size(lf + lg - 1)
    spec = np.fft.rfft(fv, size)
    spec *= np.conj(np.fft.rfft(gv, size))
    corr = np.fft.irfft(spec, size)
    half = np.empty(size)
    np.add(corr[1:], corr[:-1], out=half[1:])
    half[0] = corr[0] + corr[-1]
    # the end terms are nonzero only on the lags where f's window lands
    _subtract_cyclic(half, 1 - lg, fv * gv[-1])
    _subtract_cyclic(half, 1, fv * gv[0])
    half *= 0.5
    gh = 0.5 * (gv[:-1] + gv[1:])
    # einsum, not np.dot's threaded BLAS: the same sums on any thread count
    nf2 = float(np.einsum("i,i->", fv, fv))
    best = np.inf
    for c, gg in ((corr, gv), (half, gh)):  # whole- and half-bin grids
        d2 = nf2 + float(np.einsum("i,i->", gg, gg)) - 2 * float(np.max(c))
        best = min(best, max(d2, 0.0))
    return float(np.sqrt(best) / np.sqrt(nf2))


# ---------------------------------------------------------------------------
# Stability and appendix property checks.

@dataclasses.dataclass(frozen=True)
class StabilityReport:
    l1: float
    l2sq: float
    l3cubed: float
    cs_defect: float
    is_indicator_like: bool

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def indicator_stability_check(g: SampledFunction,
                              tol: float = 1e-6) -> StabilityReport:
    """Equality chain int g = int g^2 = int g^3 characterizes indicators;
    cs_defect = int g^2 - sqrt(int g * int g^3) <= 0 always."""
    l1 = g.riemann(1)
    l2sq = g.riemann(2)
    l3 = g.riemann(3)
    defect = l2sq - float(np.sqrt(l1 * l3))
    if not math.isfinite(defect):  # finite only if every integral is
        raise DomainError("the sample integrals overflow float64")
    ok = abs(l1 - l2sq) <= tol and abs(defect) <= tol
    return StabilityReport(l1, l2sq, l3, defect, ok)


@dataclasses.dataclass(frozen=True)
class NormTestResult:
    lhs: float
    rhs: float
    holds: bool

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)


def _as_exponent(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    return _limit_denominator(float(x), 10**6)


def correlation_tensor(fs: Sequence[SampledFunction]) -> np.ndarray:
    """N_{f_0..f_k}(x_1..x_k) = h * sum_t f_0(t) prod f_j(t - x_j), full
    offset range, for k in {1,2,3}."""
    if len({f.h for f in fs}) != 1 or len({len(f.values) for f in fs}) != 1:
        raise DomainError("functions must share one grid")
    k = len(fs) - 1
    if k not in (1, 2, 3):
        raise DomainError(f"correlation order k={k} unsupported (use 1..3)")
    h, L = fs[0].h, len(fs[0].values)
    offsets = np.arange(-(L - 1), L)
    charge(len(offsets) ** k * L, "correlation tensor exceeds budget")
    stacks = [windows[rows] for windows, rows in
              (_shift_windows(f.values, -offsets, L) for f in fs[1:])]
    subs = {1: "t,at->a", 2: "t,at,bt->ab", 3: "t,at,bt,ct->abc"}[k]
    return h * np.einsum(subs, fs[0].values, *stacks, optimize=True)


def norm_inequality_test(fs: Sequence[SampledFunction], r,
                         ps) -> NormTestResult:
    """Grid check of ||N_{f_0..f_k}||_r <= prod ||f_j||_{p_j}, gated by the
    scaling relation 1 + k/r = sum 1/p_j (an if-and-only-if)."""
    k = len(fs) - 1
    r = _as_exponent(r)
    ps = [_as_exponent(p) for p in ps]
    if len(ps) != k + 1:
        raise InvalidExponentsError(f"need {k + 1} exponents, got {len(ps)}")
    if r < 1 or any(p < 1 for p in ps):
        raise InvalidExponentsError("exponents must be >= 1")
    if 1 + Fraction(k) / r != sum(Fraction(1) / p for p in ps):
        raise InvalidExponentsError(
            f"1 + k/r = {1 + Fraction(k) / r} != sum 1/p_j = "
            f"{sum(Fraction(1) / p for p in ps)}")
    N = correlation_tensor(fs)
    h = fs[0].h
    rf = float(r)
    lhs = float((h**k * np.sum(np.abs(N) ** rf)) ** (1 / rf))
    rhs = 1.0
    for f, p in zip(fs, ps):
        pf = float(p)
        rhs *= (h * np.sum(f.values**pf)) ** (1 / pf)
    return NormTestResult(lhs, float(rhs), bool(lhs <= rhs * (1 + 1e-9)))


def continuity_probe(f: SampledFunction, k: int,
                     radii: Sequence[float]) -> list[tuple[float, float]]:
    """max |N_f(x) - int f^(k+1)| over axis and same-sign diagonal probe
    points with |x_i| <= radius, per radius.

    Mixed-sign corners are deliberately excluded: for an indicator they
    deviate by up to (k-1)*radius, while the closed-form benchmark of the
    small-radius limit is the one-sided slope radius itself.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if not all(rho >= 0 for rho in radii):  # NaN fails too
        raise DomainError("probe radii must be nonnegative")
    limit = f.riemann(k + 1)
    # each probe value is at most the limit, by Holder's inequality
    if not math.isfinite(limit):
        raise DomainError("the sample integrals overflow float64")
    out = []
    for rho in radii:
        m = int(round(rho / f.h))
        points: list[tuple[int, ...]] = []
        steps = sorted({t for t in (m, m // 2, m // 4) if t > 0}) if m else []
        for t in steps:
            for sign in (1, -1):
                points.append(tuple([sign * t] * k))  # same-sign diagonal
                for axis in range(k):
                    pt = [0] * k
                    pt[axis] = sign * t
                    points.append(tuple(pt))
        if not points:
            points = [tuple([0] * k)]
        dev = max(abs(deck_at(f, pt) - limit) for pt in points)
        out.append((float(rho), float(dev)))
    return out


def sample_interval_indicator(E: IntervalSet, h: float) -> SampledFunction:
    """Indicator of an IntervalSet sampled at left grid endpoints."""
    lo = float(min(a for a, _ in E.intervals))
    hi = float(max(b for _, b in E.intervals))
    n = int(np.ceil((hi - lo) / h)) + 1
    x = lo + h * np.arange(n)
    vals = np.zeros(n)
    ivs = [(float(a), float(b)) for a, b in E.intervals]
    for a, b in ivs:
        vals[(x >= a) & (x < b)] = 1.0
    return SampledFunction(h, lo, vals)
