"""k-decks, DFT and translate-equivalence on Z/nZ.

The DFT here uses the *positive* exponent convention

    fhat(l) = sum_j f_j * zeta**(j*l),   zeta = exp(2*pi*i/n),

which is the opposite of the numpy/FFTW default.  All spectra and bispectra
in this package follow this convention.

Two numeric paths coexist.  k_deck() is exact: it clears the denominators of
the values and sums integer products in one of three tiers, chosen by the
bound n * M^k on every partial sum (M the largest cleared value, at least 1):
float64 below 2^53, where every integer involved is a double and the sum is
exact in any order; int64 below 2^62; Python ints in an object array above.
It returns an int64 (or object) tensor over one denominator in lowest terms.
three_deck_fft() is the double-precision transform route.  The exact path is
the oracle for the float path at small n.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import compute_budget
from .errors import BudgetError, DomainError, ShapeMismatchError

MAX_DECK_ORDER = 6  # decks for k > 6 are out of scope

_FLOAT64_EXACT = 2**53  # every integer of magnitude up to this is a double
_INT64_SAFE = 2**62
_GCD_CHUNK = 2**12  # entries per step of the lowest-terms gcd


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise DomainError(f"cannot interpret {x!r} as a rational value")


@dataclasses.dataclass(frozen=True)
class CyclicFunction:
    """A rational-valued function on Z/nZ, immutable after construction.

    Use .of() to build validated (nonnegative) instances; the raw constructor
    skips the sign check so that signed functions (e.g. the p- and
    q-periodic parts of a function on Z/pqZ) can be represented.
    """

    n: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"modulus must be >= 1, got {self.n}")
        if len(self.values) != self.n:
            raise DomainError(
                f"expected {self.n} values, got {len(self.values)}")

    @classmethod
    def of(cls, values: Iterable, n: Optional[int] = None) -> "CyclicFunction":
        vals = tuple(_as_fraction(v) for v in values)
        if n is None:
            n = len(vals)
        if any(v < 0 for v in vals):
            raise DomainError("values must be nonnegative")
        return cls(n, vals)

    @classmethod
    def indicator(cls, n: int, subset: Iterable[int]) -> "CyclicFunction":
        members = {j % n for j in subset}
        return cls(n, tuple(Fraction(1 if j in members else 0)
                            for j in range(n)))

    @classmethod
    def from_floats(cls, values: Sequence[float]) -> "CyclicFunction":
        """Each value as Fraction(x).limit_denominator(10**9).

        A value within 5e-10 of an integer m is m, which is what
        limit_denominator returns for it: every other p/q with q <= 10^9
        lies at least 1/q >= 1e-9 from m, so further than 5e-10 from x.
        x - m is exact there, and the float 5e-10 lies just above the real
        one with no double between them, hence the strict test.  Only the
        other values take limit_denominator; NaN and inf reach it and raise
        as it does."""
        x = np.asarray(values, dtype=np.float64)
        m = np.rint(x)
        with np.errstate(invalid="ignore"):  # inf - inf
            near = np.abs(x - m) < 5e-10
        vals = tuple(Fraction(int(r)) if ok
                     else Fraction(v).limit_denominator(10**9)
                     for v, r, ok in zip(x.tolist(), m.tolist(),
                                         near.tolist()))
        return cls(len(vals), vals)

    def __getitem__(self, j: int) -> Fraction:
        return self.values[j % self.n]

    def support(self) -> frozenset[int]:
        return frozenset(j for j, v in enumerate(self.values) if v != 0)

    def as_floats(self) -> np.ndarray:
        return np.array([float(v) for v in self.values], dtype=np.float64)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "values": [v.numerator if v.denominator == 1 else str(v)
                       for v in self.values],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CyclicFunction":
        """Raises DomainError on a JSON true or false among the values,
        which would otherwise read as 1 or 0."""
        values = d["values"]
        if bool in set(map(type, values)):
            raise DomainError(
                "function values must be finite numbers or rational strings")
        return cls(int(d["n"]), tuple(_as_fraction(v) for v in values))


@dataclasses.dataclass(frozen=True, eq=False)
class Spectrum:
    """fhat(0..n-1) under the positive-exponent convention."""

    n: int
    values: np.ndarray  # complex128, length n

    def __getitem__(self, l: int) -> complex:
        return complex(self.values[l % self.n])


def _sorted_index(n: int, r: int) -> np.ndarray:
    """For each r-tuple over range(n), in row-major order, the row-major
    index of the same tuple sorted ascending: a bubble-sort network of
    min/max pairs over one broadcast array per digit."""
    digits = [np.arange(n).reshape((n,) + (1,) * (r - 1 - i))
              for i in range(r)]
    for top in range(r - 1, 0, -1):
        for i in range(top):
            a, b = digits[i], digits[i + 1]
            digits[i], digits[i + 1] = np.minimum(a, b), np.maximum(a, b)
    index = 0
    for d in digits:
        index = index * n + d
    return np.reshape(index, -1)


@dataclasses.dataclass(frozen=True, eq=False)
class KDeck:
    """N_f^k as a dense row-major tensor over (Z/nZ)^(k-1).

    An exact deck holds integer entries (int64, or Python ints in an object
    array when int64 could overflow) over one positive `denominator`, kept
    in lowest terms: the gcd of all entries and the denominator is 1, so two
    exact decks are equal exactly when their denominators and entries are.
    A float deck (the transform route) has no denominator.
    """

    n: int
    k: int
    values: np.ndarray  # shape (n,)*(k-1)
    denominator: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"deck modulus must be >= 1, got {self.n}")
        expected = (self.n,) * (self.k - 1)
        if self.values.shape != expected:
            raise ShapeMismatchError(
                f"deck shape {self.values.shape} != {expected}")
        if self.denominator is None:
            if not np.isfinite(self.values).all():
                raise DomainError("deck values must be finite numbers")
            return
        if self.denominator < 1:
            raise DomainError("deck denominator must be positive")
        # the gcd of the denominator and every entry, folded chunk by chunk
        # from the denominator and stopping once it reaches 1
        flat = self.values.reshape(-1)
        g = self.denominator
        for i in range(0, flat.size, _GCD_CHUNK):
            if g == 1:
                break
            g = math.gcd(g, int(np.gcd.reduce(flat[i:i + _GCD_CHUNK])))
        if g > 1:
            object.__setattr__(self, "values", self.values // g)
            object.__setattr__(self, "denominator", self.denominator // g)

    @property
    def exact(self) -> bool:
        return self.denominator is not None

    def as_floats(self) -> np.ndarray:
        if not self.exact:
            return self.values
        v, d = self.values, self.denominator
        if v.dtype != object and d < 2**53 and \
                int(np.max(np.abs(v))) < 2**53:
            return v / d  # both operands exact in float64: one rounding
        return (v.astype(object) / d).astype(np.float64)  # int / int

    def _entries(self, flat: np.ndarray, fmt=None, quote="") -> list:
        """The entries of flat, an int or "p/q" per exact entry, in its own
        lowest terms, and a float per float entry: as JSON scalars when fmt
        is None, else as text, fmt(t) per float entry and p/q wrapped in
        quote per exact one.  Each distinct exact value is reduced and
        formatted once and indexed back into place."""
        if not self.exact:  # np.unique would merge -0.0 into 0.0
            return flat.tolist() if fmt is None \
                else [fmt(t) for t in flat.tolist()]
        u, inverse = np.unique(flat, return_inverse=True)
        d = self.denominator
        if u.dtype != object and d >= _INT64_SAFE:
            u = u.astype(object)
        g = np.gcd(u, d)
        pairs = zip((u // g).tolist(), (d // g).tolist())
        if fmt is None:
            tokens = [a if b == 1 else f"{a}/{b}" for a, b in pairs]
        else:
            tokens = [str(a) if b == 1 else f"{quote}{a}/{b}{quote}"
                      for a, b in pairs]
        return np.array(tokens, dtype=object)[inverse].tolist()

    def _rows(self, sep: str, fmt, quote="") -> list[str]:
        """The text of each row (the last axis) in row-major order: its n
        entries as _entries formats them, joined by sep.

        The deck counts translates of the multiset {0, j_1, ..., j_{k-1}},
        so it is symmetric in its arguments, and the row at the prefix
        (j_1, ..., j_{k-2}) is the row at the same prefix sorted.  Only the
        rows at sorted prefixes are formatted; every other row takes the
        text of its sorted prefix.  A deck built or loaded by hand need not
        be symmetric, so the values are first checked for invariance under
        every swap of adjacent prefix axes, a float deck bit for bit so that
        -0.0 and 0.0 stay apart; when that fails, or the prefix has fewer
        than two indices, no row is shared and the rows are taken in
        place."""
        n, r = self.n, self.k - 2
        v = self.values
        rows = v.reshape(-1, n)
        bits = v.view(f"u{v.itemsize}") if v.dtype.kind == "f" else v
        shared = r > 1 and all(
            np.array_equal(bits, np.swapaxes(bits, i, i + 1))
            for i in range(r - 1))
        if shared:
            source = _sorted_index(n, r)
            own = source == np.arange(n ** r)
            rows = rows[own]
        flat = self._entries(rows.reshape(-1), fmt, quote)
        texts = [sep.join(flat[i:i + n]) for i in range(0, len(flat), n)]
        if not shared:
            return texts
        return np.array(texts, dtype=object)[
            (np.cumsum(own) - 1)[source]].tolist()

    def _header(self) -> dict:
        return {"n": self.n, "k": self.k, "convention": "positive-exponent"}

    def to_json_dict(self) -> dict:
        return {**self._header(),
                "values": self._entries(self.values.reshape(-1))}

    def to_json(self) -> str:
        """The file text: json.dumps(self.to_json_dict(), indent=2,
        sort_keys=True) and a final newline, built from the row texts of
        _rows in one join."""
        # head ends in "\n}", and "values" sorts after the header's keys;
        # an exact token, str(a) or "a/b", is json.dumps' text for it
        head = json.dumps(self._header(), indent=2, sort_keys=True)
        rows = self._rows(",\n    ", json.dumps, quote='"')
        rows[0] = f'{head[:-2]},\n  "values": [\n    {rows[0]}'
        rows[-1] += "\n  ]\n}\n"
        return ",\n    ".join(rows)

    @classmethod
    def from_json_dict(cls, d) -> "KDeck":
        """Exact when any value is a string or all are ints, else float.
        Raises DomainError on a missing key, a wrong value count or a
        non-finite or non-numeric value; a JSON true or false is not a
        number here."""
        if not isinstance(d, dict) or not {"n", "k", "values"} <= d.keys():
            raise DomainError("a deck needs the keys n, k and values")
        n, k, raw = d["n"], d["k"], d["values"]
        if type(n) is not int or type(k) is not int or n < 1 \
                or not 2 <= k <= MAX_DECK_ORDER:
            raise DomainError(f"need integers n >= 1 and 2 <= k <= "
                              f"{MAX_DECK_ORDER}, got n={n!r}, k={k!r}")
        if not isinstance(raw, list) or len(raw) != n ** (k - 1):
            raise DomainError(
                f"a deck with n={n}, k={k} needs a list of {n ** (k - 1)} "
                "values")
        kinds = set(map(type, raw))
        if bool in kinds or not all(issubclass(t, (int, str, float))
                                    for t in kinds):
            raise DomainError(
                "deck values must be finite numbers or rational strings")
        shape = (n,) * (k - 1)
        try:
            if any(issubclass(t, str) for t in kinds) or all(
                    issubclass(t, int) for t in kinds):
                fr = [_as_fraction(v) for v in raw]
                den = math.lcm(*(x.denominator for x in fr))
                ints = [x.numerator * (den // x.denominator) for x in fr]
                small = max(map(abs, ints)) < _INT64_SAFE
                arr = np.array(ints, dtype=np.int64 if small else object)
                return cls(n, k, arr.reshape(shape), den)
            return cls(n, k, np.array(raw, dtype=np.float64).reshape(shape))
        except (ValueError, ZeroDivisionError, OverflowError) as e:
            raise DomainError(f"bad deck value: {e}") from None

    def to_csv(self) -> str:
        head = f"# n={self.n},k={self.k},convention=positive-exponent"
        return "\n".join([head, *self._rows(",", str), ""])


@dataclasses.dataclass(frozen=True, eq=False)
class Bispectrum:
    """B(l1,l2) = fhat(l1) fhat(l2) fhat(-l1-l2), complex n x n."""

    n: int
    values: np.ndarray

    def __getitem__(self, idx) -> complex:
        l1, l2 = idx
        return complex(self.values[l1 % self.n, l2 % self.n])

    def to_json_dict(self) -> dict:
        return {"n": self.n, "convention": "positive-exponent",
                "values": [[float(v.real), float(v.imag)]
                           for v in self.values.reshape(-1)]}


def dft(f: CyclicFunction) -> Spectrum:
    """Fast transform; positive exponent, so it is n * ifft of the values."""
    vals = f.as_floats()
    return Spectrum(f.n, np.fft.ifft(vals) * f.n)


def _shift_matrix(n: int) -> np.ndarray:
    a = np.arange(n)
    return (a[:, None] + a[None, :]) % n  # [s, j] -> (j+s) % n


def _shift_products(R: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """rows times m more shift rows: out[(t, s_1..s_m), j] = rows[t, j] *
    R[s_1, j] * ... * R[s_m, j], row-major with j last."""
    n = R.shape[1]
    for _ in range(m):
        rows = (rows[:, None, :] * R[None, :, :]).reshape(-1, n)
    return rows


def _deck_int64(v: np.ndarray, n: int, k: int) -> np.ndarray:
    """The deck contraction of v in v's dtype: float64, int64 or object, one
    per tier of k_deck, which says when each is exact.

    The k - 1 shift indices split into a left half, ceil((k-1)/2) of them
    with v's own factor, and a right half; each half is one array of shift
    products with j last, and the deck is one matrix product of the two
    over j."""
    R = v[_shift_matrix(n)]  # R[s, j] = v[(j+s) % n]
    if k == 2:
        return R @ v
    a = k // 2  # ceil((k - 1) / 2)
    left = _shift_products(R, R * v[None, :], a - 1)
    right = _shift_products(R, R, k - 2 - a)
    return (left @ right.T).reshape((n,) * (k - 1))


def k_deck(f: CyclicFunction, k: int, budget: Optional[int] = None) -> KDeck:
    """Exact k-deck N_f^k(j_1..j_{k-1}) = sum_j f_j f_{j+j_1} ... f_{j+j_{k-1}}.

    The sum runs over all j in Z/nZ.  Denominators are cleared first, so the
    core sum is over integers of magnitude at most M (the largest cleared
    value), and the deck is that integer tensor over the denominator D^k.

    The core runs in float64 (BLAS) when n * M^k < 2^53, and is still exact:
    j is the only index summed and every operand carries it, so each
    intermediate of the contraction is a product of at most k values or a
    partial sum of at most n such products, an integer of magnitude at most
    n * M^k.  float64 holds every integer below 2^53 exactly, so each
    multiply and add is exact, whatever order BLAS sums in, with or without
    fused multiply-add and on any number of threads; the result is converted
    to int64.  Below 2^62 the core runs in int64, and above that in Python
    ints (object dtype).
    """
    if k < 2:
        raise DomainError(f"deck order must be >= 2, got {k}")
    if k > MAX_DECK_ORDER:
        raise DomainError(f"deck order {k} > {MAX_DECK_ORDER} is unsupported")
    n = f.n
    if n**k > compute_budget(budget):
        raise BudgetError(f"k_deck size n^k = {n}^{k} exceeds budget")
    denom = math.lcm(*(v.denominator for v in f.values))
    ints = [v.numerator * (denom // v.denominator) for v in f.values]
    bound = n * max(max(map(abs, ints)), 1) ** k
    if bound < _FLOAT64_EXACT:
        core = _deck_int64(np.array(ints, dtype=np.float64), n, k)
        # cast in the core's own buffer: a 1-D assignment between views of
        # one array runs element by element, each read before its write
        flat = core.reshape(-1)
        raw = flat.view(np.int64)
        raw[:] = flat
        raw = raw.reshape(core.shape)
    else:
        dtype = np.int64 if bound < _INT64_SAFE else object
        raw = _deck_int64(np.array(ints, dtype=dtype), n, k)
    return KDeck(n, k, raw, denom**k)


def bispectrum(f: CyclicFunction) -> Bispectrum:
    fh = dft(f).values
    n = f.n
    l = np.arange(n)
    third = fh[(-(l[:, None] + l[None, :])) % n]
    B = fh[:, None] * fh[None, :]
    B *= third
    return Bispectrum(n, B)


def bispectrum_from_deck(deck: KDeck) -> Bispectrum:
    """2-D transform of a 3-deck: B = n^2 * ifft2(N) under our convention."""
    if deck.k != 3:
        raise DomainError(f"expected a 3-deck, got k={deck.k}")
    B = np.fft.ifft2(deck.as_floats())
    B *= deck.n**2
    return Bispectrum(deck.n, B)


def three_deck_fft(f: CyclicFunction) -> KDeck:
    """3-deck via the bispectrum factorization and an inverse 2-D transform."""
    B = bispectrum(f).values
    n = f.n
    N = np.fft.fft2(B)
    N /= n**2
    return KDeck(n, 3, np.real(N))


def translate(f: CyclicFunction, a: int) -> CyclicFunction:
    """result(j) = f(j - a mod n); every k-deck is invariant under this."""
    n = f.n
    cut = n - a % n
    return CyclicFunction(n, f.values[cut:] + f.values[:cut])


def equal_up_to_translation(f: CyclicFunction,
                            g: CyclicFunction) -> Optional[int]:
    """Least a in [0,n) with g = translate(f, a), or None."""
    if f.n != g.n:
        raise ShapeMismatchError(f"moduli differ: {f.n} != {g.n}")
    n = f.n
    for a in range(n):
        if all(g.values[j] == f.values[(j - a) % n] for j in range(n)):
            return a
    return None


def deck_equal(d1: KDeck, d2: KDeck) -> bool:
    if (d1.n, d1.k) != (d2.n, d2.k):
        raise ShapeMismatchError(
            f"deck parameters differ: {(d1.n, d1.k)} != {(d2.n, d2.k)}")
    if d1.exact and d2.exact:  # both in lowest terms
        return (d1.denominator == d2.denominator
                and bool(np.array_equal(d1.values, d2.values)))
    return bool(np.array_equal(d1.as_floats(), d2.as_floats()))


def canonical_rotation(f: CyclicFunction) -> tuple[CyclicFunction, int]:
    """Lexicographically-smallest rotation and the least shift producing it.

    Minimum-expression search: two candidate starts are compared until one
    loses, and a loss after m equal values rules out m + 1 starts, so the
    search takes O(n) comparisons.  If it ends with both candidates equal,
    they are the two least starts of the least rotation, a period apart."""
    v, n = f.values, f.n
    i, j, m = 0, 1, 0
    while i < n and j < n and m < n:
        x, y = v[(i + m) % n], v[(j + m) % n]
        if x == y:
            m += 1
            continue
        if x > y:
            i += m + 1
        else:
            j += m + 1
        if i == j:
            j += 1
        m = 0
    s = min(i, j)
    period = abs(i - j) if m == n else n
    # translate(f, a) starts at -a, and equal rotations start a period apart
    return CyclicFunction(n, v[s:] + v[:s]), -s % period
