"""Closed motivic formulas for punctual Hilbert schemes, their
Hilbert-Samuel strata, and nestings with smallest part 2 or 3.

All classes live in Z[L].  Each stratum of length n >= 5 has its own closed
formula, so the strata summing to the Göttsche motive is a check that can
fail: ``verify`` and the tests run it, and the F_q point counts referee the
strata and the nested motives.  The (2, n) and (3, n) series assert their
closed rational expression against the termwise build.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb
from operator import index

from .series import LEFSCHETZ as L
from .series import LPoly, projective_space

P1 = projective_space(1)
P2 = projective_space(2)


@lru_cache(maxsize=None)
def gottsche_punctual(order: int):
    """Motives of the punctual Hilbert schemes of a surface point,
    as coefficients of prod_{j>=1} 1/(1 - L^(j-1) t^j) up to t^order."""
    coeffs = [LPoly((1,))] + [LPoly()] * order
    for j in range(1, order + 1):
        weight = L ** (j - 1)
        for n in range(j, order + 1):
            coeffs[n] = coeffs[n] + weight * coeffs[n - j]
    return tuple(coeffs)


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


def series_2bullet(order: int):
    """Generating series of the (2, n) motives, built both termwise and from
    the closed rational expression, asserted equal."""
    if order < 0:
        raise ValueError("the series order must be nonnegative")
    termwise = [LPoly()] * 2 + [motive_2n(n) for n in range(2, order + 1)]
    termwise = termwise[: order + 1]
    hilb = gottsche_punctual(order)
    geom = [L**n for n in range(order + 1)]  # 1/(1 - L t)
    closed = []
    for n in range(order + 1):
        tail = (L - 1) * geom[n - 1] - geom[n] if n >= 1 else -geom[0]
        closed.append(P1 * hilb[n] + P1 * tail)
    if closed != termwise:
        raise AssertionError("closed form disagrees with termwise build")
    return tuple(termwise)


def series_3bullet(order: int):
    """Generating series of the (3, n) motives, built both termwise and from
    the closed rational expression, asserted equal."""
    if order < 0:
        raise ValueError("the series order must be nonnegative")
    termwise = [LPoly()] * 3 + [motive_3n(n) for n in range(3, order + 1)]
    termwise = termwise[: order + 1]
    hilb = gottsche_punctual(order)
    h_coeffs = {
        0: P2,
        1: -(L**3 - 1),
        2: -(L**3 - 1) * P1,
        3: -(L**2 - L**5),
        4: -(L**2),
    }
    # 1 / ((1 - L t)(1 - L^2 t^2)) expanded in t
    inv = [LPoly()] * (order + 1)
    inv[0] = LPoly((1,))
    for n in range(1, order + 1):
        acc = L * inv[n - 1]
        if n >= 2:
            acc = acc + L**2 * inv[n - 2]
            if n >= 3:
                acc = acc - L**3 * inv[n - 3]
        inv[n] = acc
    closed = []
    for n in range(order + 1):
        acc = P2 * hilb[n]
        for d, h in h_coeffs.items():
            if d <= n:
                acc = acc - h * inv[n - d]
        closed.append(acc)
    if closed != termwise:
        raise AssertionError("closed form disagrees with termwise build")
    return tuple(termwise)


def a_coefficients(n: int):
    """Second- and third-from-top coefficients of the punctual Hilbert
    scheme motive as a polynomial in L."""
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

