"""Global invariants of surfaces from punctual ones.

At the Euler-characteristic level the power structure on unit series is
ordinary exponentiation, so the two-variable punctual table raised to the
surface Euler characteristic gives the global nested counts.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .engine import rational_form
from .partitions import nested_pair_counts
from .series import QSeries, ps_mul, ps_pow

#: Published rank-6 global count on the sixth del Pezzo surface for the
#: size vector (6, 12); used to pin down that surface's Euler characteristic
#: empirically rather than trusting a naming convention.
DEL_PEZZO_TARGET = 120806108165466


class SurfaceResolutionError(RuntimeError):
    """No (or no unique) exponent reproduces the published value."""


class SurfaceProfile(namedtuple("SurfaceProfile", "name euler_characteristic")):
    """A surface, reduced to the only datum the Euler level needs."""

    __slots__ = ()

    def __new__(cls, name, euler_characteristic):
        if euler_characteristic < 0:
            raise ValueError(
                "only nonnegative Euler characteristics are supported by the "
                "exponentiation path"
            )
        return super().__new__(cls, name, euler_characteristic)


@lru_cache(maxsize=None)
def punctual_nested_table(rank: int, max1: int, max2: int) -> QSeries:
    """Two-variable table of r-coloured nested counts: the coefficient of
    q1^a q2^b is the number of r-coloured nested pairs of sizes (a, b).

    An r-coloured nested pair is an r-tuple of nested pairs whose sizes add,
    so the table is the rank-th power of the rank-one table, which
    ``nested_pair_counts`` builds in one walk over the outer partitions.  It
    is cross-checked against the series engine on every diagonal it covers.
    """
    if rank < 1:
        raise ValueError("the number of colours must be positive")
    if max1 > max2:
        raise ValueError("need max1 <= max2")
    single = nested_pair_counts(max1, max2)
    table = ps_pow(QSeries(("q1", "q2"), (max1, max2), single), rank)
    # Largest gap first: its one-gap numerators serve every smaller gap.
    for gap in range(max2 - max1, -1, -1):
        engine_side = rational_form((gap,), rank).expand(max1, z_power=rank)
        for a in range(max1 + 1):
            if a + gap > max2:
                break
            if engine_side[(a,)] != table[(a, a + gap)]:
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


def resolve_dp6_exponent(candidates=range(2, 13)) -> int:
    """Euler characteristic of the sixth del Pezzo surface, resolved by
    scanning which exponent reproduces the published rank-6 count of
    (6, 12)-nestings.  Raises unless exactly one candidate matches."""
    table = punctual_nested_table(6, 6, 12)
    matches = []
    powered, reached = QSeries.one(table.variables, table.truncation), 0
    for e in sorted(candidates):
        powered = ps_mul(powered, ps_pow(table, e - reached))
        reached = e
        if powered[(6, 12)] == DEL_PEZZO_TARGET:
            matches.append(e)
    if len(matches) != 1:
        raise SurfaceResolutionError(
            f"expected exactly one matching exponent, found {matches}"
        )
    return matches[0]
