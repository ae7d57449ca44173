"""Closed motivic formulas for punctual Hilbert schemes, their
Hilbert-Samuel strata, and nestings with smallest part 2 or 3.

All classes live in Z[L], the ring :class:`LPoly`.  Each stratum of
length n >= 5 has its own closed formula, so the strata summing to the
Göttsche motive is a check that can fail: ``verify`` and the tests run it,
and the F_q point counts referee the strata and the nested motives.  The
(2, n) and (3, n) series are one construction: each asserts its closed
rational expression, kept as data, against the termwise build.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb
from operator import add, index

from . import kernels
from .kernels import _as_int


class LPoly:
    """Polynomial in the Lefschetz class with exact integer coefficients."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients=()):
        coeffs = [_as_int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("LPoly is immutable")

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def leading_coefficient(self):
        return self.coefficients[-1] if self.coefficients else 0

    def is_zero(self):
        return not self.coefficients

    def __getitem__(self, i):
        return self.coefficients[i] if 0 <= i < len(self.coefficients) else 0

    def __iter__(self):
        return iter(self.coefficients)

    def __add__(self, other):
        other = _coerce_lpoly(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return LPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return LPoly([-c for c in self.coefficients])

    def __sub__(self, other):
        return self + (-_coerce_lpoly(other))

    def __rsub__(self, other):
        return _coerce_lpoly(other) - self

    def __mul__(self, other):
        a, b = self.coefficients, _coerce_lpoly(other).coefficients
        return LPoly(kernels.mul_trunc(a, b, len(a) + len(b) - 2))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        result, square = LPoly((1,)), self
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, int):
            other = LPoly((other,))
        return isinstance(other, LPoly) and self.coefficients == other.coefficients

    def __hash__(self):
        # A constant equals its int, so it hashes as that int.
        return hash(self[0]) if self.degree < 1 else hash(self.coefficients)

    def __repr__(self):
        if self.is_zero():
            return "LPoly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            else:
                mono = "L" if i == 1 else f"L^{i}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return "LPoly(" + " + ".join(parts) + ")"

    def to_json_list(self):
        return [str(c) for c in self.coefficients]


def _coerce_lpoly(value):
    if isinstance(value, LPoly):
        return value
    if isinstance(value, int):
        return LPoly((value,))
    raise TypeError(f"cannot combine LPoly with {type(value).__name__}")


#: The Lefschetz class itself.
LEFSCHETZ = LPoly((0, 1))


def projective_space(n: int) -> LPoly:
    """Class of n-dimensional projective space: 1 + L + ... + L^n."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    return LPoly((1,) * (n + 1))


L = LEFSCHETZ
P1 = projective_space(1)
P2 = projective_space(2)


@lru_cache(maxsize=None)
def gottsche_punctual(order: int):
    """Motives of the punctual Hilbert schemes of a surface point,
    as coefficients of prod_{j>=1} 1/(1 - L^(j-1) t^j) up to t^order.

    The recurrence runs on integer coefficient rows, where multiplying by
    L^(j-1) is a shift by j - 1; the t^n row has degree below max(n, 1) in
    L.  Each LPoly is built once, at the end."""
    rows = [[1]] + [[0] * n for n in range(1, order + 1)]
    for j in range(1, order + 1):
        for n in range(j, order + 1):
            src, dst = rows[n - j], rows[n]
            dst[j - 1 : j - 1 + len(src)] = map(add, dst[j - 1 :], src)
    return tuple(map(LPoly, rows))


class StrataMotives(
    namedtuple("StrataMotives", "curvilinear h1 h2 h2_split h3")
):
    """Motives of the curvilinear locus and of the strata of non-curvilinear
    ideals split by the second Hilbert-Samuel value.  Every field is an
    LPoly but ``h2_split``, the pair (one repeated root, two distinct
    roots) that adds up to ``h2``."""

    __slots__ = ()

    def total(self) -> LPoly:
        return self.curvilinear + self.h1 + self.h2 + self.h3


def motive_strata(n: int) -> StrataMotives:
    """Stratification of the length-n punctual Hilbert scheme; strata below
    their existence threshold are zero."""
    if n < 2:
        raise ValueError("the stratification needs n >= 2")
    curvilinear = P1 * L ** (n - 2)
    if n == 4:
        h1 = P2
    elif n >= 5:
        h1 = P1 * L ** (n - 3)
    else:
        h1 = LPoly()
    if n >= 5:
        k = n // 2
        if n % 2 == 0:
            split = (
                (1 + (k - 2) * L) * P1 * L ** (n - 5),
                (k - 2) * P1 * L ** (n - 3),
            )
        else:
            split = (
                (1 + (k - 2) * L) * P1 * L ** (n - 5),
                (1 + (k - 2) * P1) * L ** (n - 3),
            )
        h2 = split[0] + split[1]
    else:
        split = (LPoly(), LPoly())
        h2 = LPoly()
    if n >= 5:
        h3 = _h3_closed(n)
    else:
        h3 = gottsche_punctual(n)[n] - curvilinear - h1 - h2
    return StrataMotives(curvilinear, h1, h2, split, h3)


def _h3_closed(n: int) -> LPoly:
    hilb = gottsche_punctual(n)[n]
    k = n // 2
    if n % 2 == 0:
        return hilb - (1 + (k - 2) * P1 * L + P1 * L**2) * P1 * L ** (n - 5)
    return hilb - (P2 + (k - 2) * P1 * P1 * L + P1 * P1 * L**2) * L ** (n - 5)


def motive_2n(n: int) -> LPoly:
    """Motive of the punctual nested Hilbert scheme with sizes (2, n)."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return P1 * (gottsche_punctual(n)[n] - L ** (n - 1))


def motive_3n(n: int) -> LPoly:
    """Motive of the punctual nested Hilbert scheme with sizes (3, n):
    P2 [Hilb^n_p] - L^(n-2) P1 (P2 + floor((n-2)/2) L)."""
    if n < 3:
        raise ValueError("needs n >= 3")
    hilb = gottsche_punctual(n)[n]
    return P2 * hilb - L ** (n - 2) * P1 * (P2 + ((n - 2) // 2) * L)


def motive_Y1112(n: int) -> LPoly:
    """Motive of the stratum of (3, n)-nestings (J containing I) whose
    length-n ideal I has second Hilbert-Samuel value 2 and whose length-3
    ideal J is curvilinear: L^(n-4) (1 + k L + (k+n-6) L^2 + (n-5) L^3),
    k = n // 2.

    The pairs over the same I with J the fat point m^2 are not part of it:
    there is one per I, so they are the h2 stratum itself, which
    ``strata_assembly_3n`` counts inside the punctual Hilbert scheme term."""
    if n < 5:
        raise ValueError("needs n >= 5")
    k = n // 2
    return L ** (n - 4) * LPoly((1, k, k + n - 6, n - 5))


def strata_assembly_3n(n: int) -> LPoly:
    """Reassemble the (3, n) motive from its stratification pieces."""
    if n < 5:
        raise ValueError("needs n >= 5")
    strata = motive_strata(n)
    curvilinear_3 = P1 * L  # curvilinear locus of the length-3 punctual scheme
    return (
        gottsche_punctual(n)[n]
        + strata.h1 * L
        + motive_Y1112(n)
        + strata.h3 * curvilinear_3
    )


#: i -> (N_i, D_i), each the coefficients of t^0, t^1, ... in Z[L]: the
#: (i, n) series is P_{i-1} H(t) - N_i(t) / D_i(t), H the Göttsche series.
_CLOSED_SERIES = {
    2: ((P1, -P1 * (L - 1)), (1, -L)),
    3: (
        (P2, 1 - L**3, (1 - L**3) * P1, L**5 - L**2, -(L**2)),
        (1, -L, -(L**2), L**3),
    ),
}


def _closed_series(i, motive, order):
    """The (i, n) motives for n <= order, built termwise from ``motive`` and
    from the closed rational expression, asserted equal."""
    if order < 0:
        raise ValueError("the series order must be nonnegative")
    termwise = [LPoly()] * i + [motive(n) for n in range(i, order + 1)]
    termwise = termwise[: order + 1]
    numerator, denominator = _CLOSED_SERIES[i]
    # N_i / D_i by t-division; D_i has constant term 1
    quotient = []
    for n in range(order + 1):
        acc = numerator[n] if n < len(numerator) else LPoly()
        for k, d in enumerate(denominator[1 : n + 1], 1):
            acc = acc - d * quotient[n - k]
        quotient.append(acc)
    fibre = projective_space(i - 1)
    closed = [fibre * h - r for h, r in zip(gottsche_punctual(order), quotient)]
    if closed != termwise:
        raise AssertionError("closed form disagrees with termwise build")
    return tuple(termwise)


def series_2bullet(order: int):
    """Generating series of the (2, n) motives up to t^order."""
    return _closed_series(2, motive_2n, order)


def series_3bullet(order: int):
    """Generating series of the (3, n) motives up to t^order."""
    return _closed_series(3, motive_3n, order)


def a_coefficients(n: int):
    """Second- and third-from-top coefficients of the punctual Hilbert
    scheme motive as a polynomial in L."""
    n = index(n)
    if n <= 3:
        raise ValueError("needs n > 3")
    return (n // 2, n * (n - 6) // 12 + (n - 1) // 2 + 1)


def component_count(kind: str, n: int) -> int:
    """Number of top-dimensional irreducible components of the (2, n) or
    (3, n) punctual nested Hilbert scheme: the matching entry of
    :func:`a_coefficients`."""
    if kind not in ("2n", "3n"):
        raise ValueError("kind must be '2n' or '3n'")
    return a_coefficients(n)[kind == "3n"]


class HSVector(namedtuple("HSVector", "values")):
    """A Hilbert-Samuel dimension vector (1, h_1, ..., h_t).

    Admissible vectors start with the staircase (1, 2, ..., d) for a unique
    d >= 1, drop below at index d, and are weakly decreasing from there on.
    """

    __slots__ = ()

    def __new__(cls, values):
        values = tuple(map(index, values))
        if not values or values[0] != 1:
            raise ValueError("a Hilbert-Samuel vector starts with 1")
        if any(v <= 0 for v in values):
            raise ValueError("stored entries are positive")
        self = super().__new__(cls, values)
        d = self.staircase_length
        for i in range(d, len(values) - 1):
            if values[i] < values[i + 1]:
                raise ValueError("entries must weakly decrease past the staircase")
        return self

    @property
    def staircase_length(self) -> int:
        d = 0
        while d < len(self.values) and self.values[d] == d + 1:
            d += 1
        if d < len(self.values) and self.values[d] > d + 1:
            raise ValueError("entries may never exceed the staircase")
        return d

    @property
    def size(self) -> int:
        return sum(self.values)

    def entry(self, i: int) -> int:
        return self.values[i] if 0 <= i < len(self.values) else 0


def hs_dimension(h: HSVector) -> int:
    """Dimension of the locus of fat points with this Hilbert-Samuel vector:
    |h| - d - sum_{i >= d} binom(h_{i-1} - h_i, 2)."""
    d = h.staircase_length
    total = h.size - d
    for i in range(d, len(h.values) + 1):
        total -= comb(h.entry(i - 1) - h.entry(i), 2)
    return total


def hs_motive_exponent(h: HSVector) -> int:
    """Power of L relating the stratum class to its homogeneous sublocus:
    binom(d, 2) - sum_{i >= d} ((h_{i-1} - h_i)(h_{i-1} + h_i - 2h_{i+1} - 1)/2
    - h_{i+1})."""
    d = h.staircase_length
    total = comb(d, 2)
    for i in range(d, len(h.values) + 1):
        a = h.entry(i - 1)
        b = h.entry(i)
        c = h.entry(i + 1)
        total -= (a - b) * (a + b - 2 * c - 1) // 2 - c
    return total


def hs_homogeneous_dimension(h: HSVector) -> int:
    """Dimension of the homogeneous (torus-fixed) sublocus of the stratum."""
    d = h.staircase_length
    return sum(
        (h.entry(i - 1) - h.entry(i) + 1) * (h.entry(i) - h.entry(i + 1))
        for i in range(d, len(h.values) + 1)
    )


#: Registered small nested motives (no general engine for three-step
#: nestings; the (2, 3, 4) entry is a recorded constant).
BASE_NESTED_MOTIVES = {
    (0, 2): P1,
    (1, 3): P2,
    (2, 4): LPoly((1, 2, 3, 2)),
    (3, 5): LPoly((1, 2, 4, 4, 2)),
    (0, 1, 2): P1,
    (1, 2, 3): P1 * P1,
    (2, 3, 4): P1 * LPoly((1, 2, 2)),
}

#: Global nested classes of the affine plane, recorded for reference only;
#: their Euler specialization (L -> 1) must match the punctual flag counts
#: because the plane has Euler characteristic 1, and their values at L = q
#: the F_q point counts summed over the support types of the subscheme.
GLOBAL_PLANE_MOTIVES = {
    (0, 2): P1 * L**3,
    (1, 3): LPoly((0, 0, 0, -1, 1, 2, 1)),
}

