"""Global invariants of surfaces from punctual ones.

At the Euler-characteristic level the power structure on unit series is
ordinary exponentiation, so the two-variable punctual table raised to the
surface Euler characteristic gives the global nested counts.  The rank-one
table is read as rows from ``partitions._nested_pair_rows``, a transfer
matrix over row pairs, and its powers are ``series`` products.  The sixth
del Pezzo surface's Euler characteristic is the one exponent that takes the
rank-6 table to the published (6, 12) count.  The table's diagonals are
cross-checked against the engine's rank-r forms, each expanded once by
``series.expand_dense``; this module multiplies no coefficient lists.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import index

from .engine import rational_form
from .partitions import _nested_pair_rows
from .series import QSeries, expand_dense, ps_mul, ps_pow

#: Published rank-6 global count on the sixth del Pezzo surface for the
#: size vector (6, 12); used to pin down that surface's Euler characteristic
#: empirically rather than trusting a naming convention.
DEL_PEZZO_TARGET = 120806108165466


class SurfaceResolutionError(RuntimeError):
    """No exponent reproduces the published value."""


class SurfaceProfile(namedtuple("SurfaceProfile", "name euler_characteristic")):
    """A surface, reduced to the only datum the Euler level needs."""

    __slots__ = ()

    def __new__(cls, name, euler_characteristic):
        euler_characteristic = index(euler_characteristic)
        if euler_characteristic < 0:
            raise ValueError(
                "only nonnegative Euler characteristics are supported by the "
                "exponentiation path"
            )
        return super().__new__(cls, name, euler_characteristic)


# typed: a float size must miss an equal int's entry and be rejected
@lru_cache(maxsize=None, typed=True)
def punctual_nested_table(rank: int, max1: int, max2: int) -> QSeries:
    """Two-variable table of r-coloured nested counts: the coefficient of
    q1^a q2^b is the number of r-coloured nested pairs of sizes (a, b).

    An r-coloured nested pair is an r-tuple of nested pairs whose sizes add,
    so the table is the rank-th power of the rank-one table, which
    ``partitions._nested_pair_rows`` builds, as rows, by a transfer matrix
    over row pairs; its row a goes in as the row keyed ``(a,)``, as it is.
    The series engine cross-checks the diagonals b - a <= max2 - max1 in
    full, the ones whose whole length fits the box: each diagonal is its
    form's ratio times Z^rank, one ``expand_dense`` with Z^rank folded into
    the denominator's passes.  The engine keeps every rank form it builds,
    so the forms this process already built are read, not rebuilt.  The
    tests referee the triangle beyond them against the colouring oracle.
    """
    rank, max1, max2 = index(rank), index(max1), index(max2)
    if rank < 1:
        raise ValueError("the number of colours must be positive")
    if max1 > max2:
        raise ValueError("need max1 <= max2")
    rows = {(a,): row for a, row in enumerate(_nested_pair_rows(max1, max2))}
    single = QSeries.from_rows(("q1", "q2"), (max1, max2), rows)
    table = ps_pow(single, rank)
    # Largest gap first: its one-gap numerators serve every smaller gap.
    for gap in range(max2 - max1, -1, -1):
        form = rational_form((gap,), rank)
        engine_side = expand_dense(form.numerator, form.denominator, max1, rank)
        for a, value in enumerate(engine_side):
            if value != table.rows[(a,)][a + gap]:
                raise AssertionError(
                    f"power-structure/engine mismatch at sizes "
                    f"({a}, {a + gap}), rank {rank}"
                )
    return table


def globalize(punctual: QSeries, surface: SurfaceProfile) -> QSeries:
    """Raise a punctual series to the surface Euler characteristic."""
    if punctual.constant_term() != 1:
        raise ValueError("punctual series must have constant term 1")
    return ps_pow(punctual, surface.euler_characteristic)


def resolve_dp6_exponent() -> int:
    """Euler characteristic of the sixth del Pezzo surface: the exponent
    e in 2..12 whose power of the rank-6 table T reproduces the published
    (6, 12) count.  Raises ``SurfaceResolutionError`` when none does.

    Let c(e) be the (6, 12) coefficient of T^e.  T has nonnegative integer
    coefficients, T_(0,0) = 1 and T_(6,12) >= 1, so
    c(e + 1) >= c(e) T_(0,0) + [T^e]_(0,0) T_(6,12) = c(e) + T_(6,12) > c(e):
    the counts strictly increase.  So at most one exponent matches, and the
    scan, one product per exponent, stops at the first count that reaches
    the target: no later count can equal it."""
    table = punctual_nested_table(6, 6, 12)
    powered = table
    for e in range(2, 13):
        powered = ps_mul(powered, table)
        count = powered[(6, 12)]
        if count >= DEL_PEZZO_TARGET:
            break
    if count != DEL_PEZZO_TARGET:
        raise SurfaceResolutionError(
            f"no exponent in 2..12 reproduces the published count: "
            f"exponent {e} reached {count}"
        )
    return e
