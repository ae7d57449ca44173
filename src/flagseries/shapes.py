"""Skew Ferrers diagrams up to translation.

A connected skew diagram is stored as its row signature: one (start, length)
pair per row, top row first, translated so the minimal start column is 0.
Diagrams are drawn in English orientation (x grows east, y grows south), so
starts and right ends weakly decrease going down the rows.  A general shape
is a multiset of connected components, kept in a fixed sorted order so that
equality is structural.

This module holds what the production paths use: the diagrams, their
boundary paths, the connected diagrams of each size and monotone-filling
counts.  Enumerating whole shape classes is brute force that only the tests
run, as a referee, so it lives in ``tests/referees.py``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import index


class _SortKeyOrder:
    """Orders records by their ``sort_key()``, not by their fields."""

    __slots__ = ()

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        return self.sort_key() >= other.sort_key()


class ConnectedSkew(_SortKeyOrder, namedtuple("ConnectedSkew", "rows")):
    """A connected skew Ferrers diagram, canonical up to translation.

    ``rows`` is ((start, length), ...), top row first.
    """

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple((index(s), index(l)) for s, l in rows)
        if not rows:
            raise ValueError("a connected diagram has at least one row")
        if any(l < 1 or s < 0 for s, l in rows):
            raise ValueError("rows need start >= 0 and length >= 1")
        if min(s for s, _ in rows) != 0:
            raise ValueError("canonical form translates the minimal start to 0")
        for (s0, l0), (s1, l1) in zip(rows, rows[1:]):
            if s1 > s0:
                raise ValueError("starts must weakly decrease down the rows")
            if s1 + l1 > s0 + l0:
                raise ValueError("right ends must weakly decrease down the rows")
            if s1 + l1 <= s0:
                raise ValueError("consecutive rows must share a column")
        return super().__new__(cls, rows)

    @property
    def size(self) -> int:
        return sum(l for _, l in self.rows)

    def cells(self):
        """Set of (x, y) lattice boxes, top row at y = 0."""
        return {
            (x, y)
            for y, (s, l) in enumerate(self.rows)
            for x in range(s, s + l)
        }

    def is_straight(self) -> bool:
        """True when the diagram is the Ferrers diagram of a partition."""
        return self.nw_path().M == 1

    def nw_path(self) -> "NWPath":
        """West/south run lengths of the north-west boundary path."""
        ells = [self.rows[0][1]]
        vees = []
        run = 1
        for (s0, _), (s1, _) in zip(self.rows, self.rows[1:]):
            if s1 == s0:
                run += 1
            else:
                vees.append(run)
                ells.append(s0 - s1)
                run = 1
        vees.append(run)
        return NWPath(tuple(ells), tuple(vees))

    def sort_key(self):
        return (self.size, self.rows)


class NWPath(namedtuple("NWPath", "ells vees")):
    """North-west boundary path data of a connected skew diagram: the west
    run lengths ``ells``, NE corner first, and the south run lengths
    ``vees``."""

    __slots__ = ()

    def __new__(cls, ells, vees):
        if len(ells) != len(vees) or not ells:
            raise ValueError("need matching nonempty west and south runs")
        if any(x < 1 for x in ells + vees):
            raise ValueError("all run lengths are >= 1")
        return super().__new__(cls, ells, vees)

    @property
    def M(self) -> int:
        return len(self.ells)

    @property
    def west_total(self) -> int:
        return sum(self.ells)

    @property
    def south_total(self) -> int:
        return sum(self.vees)

    @property
    def length(self) -> int:
        return self.west_total + self.south_total

    @property
    def offset_weight(self) -> int:
        """Sum over runs i of ells[i] * (south steps strictly before run i).

        Vanishes exactly for straight partition shapes (M == 1).
        """
        total = 0
        south = 0
        for ell, vee in zip(self.ells, self.vees):
            total += ell * south
            south += vee
        return total


class SkewShape(_SortKeyOrder, namedtuple("SkewShape", "components")):
    """A possibly disconnected skew diagram: a sorted multiset of components."""

    __slots__ = ()

    def __new__(cls, components):
        comps = tuple(sorted(components, key=ConnectedSkew.sort_key))
        if not comps:
            raise ValueError("a shape has at least one box")
        return super().__new__(cls, comps)

    @classmethod
    def of(cls, *row_lists) -> "SkewShape":
        return cls(tuple(ConnectedSkew(tuple(rows)) for rows in row_lists))

    @property
    def size(self) -> int:
        return sum(c.size for c in self.components)

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    def is_straight(self) -> bool:
        return self.is_connected and self.components[0].is_straight()

    def is_disjoint_boxes(self) -> bool:
        return all(c.size == 1 for c in self.components)

    def key(self):
        return tuple(c.rows for c in self.components)

    def sort_key(self):
        return tuple(c.sort_key() for c in self.components)

@lru_cache(maxsize=None)
def enum_connected_skew(size: int):
    """All connected translation classes with ``size`` boxes, sorted by row
    signature.  The order is fixed so golden outputs stay stable."""
    if size < 1:
        raise ValueError("size must be positive")
    found = []

    def place(lens, starts, i):
        if i < 0:
            found.append(ConnectedSkew(tuple(zip(starts, lens))))
            return
        below_s, below_l = starts[i + 1], lens[i + 1]
        lo = max(below_s, below_s + below_l - lens[i])
        hi = below_s + below_l - 1
        for s in range(lo, hi + 1):
            starts[i] = s
            place(lens, starts, i - 1)

    def row_lengths(remaining, acc):
        if remaining == 0 and acc:
            if len(acc) == 1:
                found.append(ConnectedSkew(((0, acc[0]),)))
            else:
                place(acc, [0] * len(acc), len(acc) - 2)
            return
        for l in range(1, remaining + 1):
            row_lengths(remaining - l, acc + [l])

    row_lengths(size, [])
    return tuple(sorted(found, key=ConnectedSkew.sort_key))


def _order_ideals(shape: SkewShape) -> list:
    """The order ideals of ``shape`` by size, as bit masks over its boxes
    sorted by (component, row, column).  An ideal holds the west and north
    neighbours of each of its boxes (Stanley, EC1 ch. 3), so the ideals of
    size m + 1 are those of size m with one box added whose neighbours are
    in."""
    cells = sorted(
        (c, y, x)
        for c, comp in enumerate(shape.components)
        for x, y in comp.cells()
    )
    index = {cell: i for i, cell in enumerate(cells)}
    needs = [
        sum(1 << index[nb] for nb in ((c, y, x - 1), (c, y - 1, x)) if nb in index)
        for c, y, x in cells
    ]
    levels = [[0]]
    for _ in cells:
        grown = {}
        for ideal in levels[-1]:
            for i, need in enumerate(needs):
                if not ideal >> i & 1 and ideal & need == need:
                    grown[ideal | 1 << i] = None
        levels.append(list(grown))
    return levels


def filling_counts(shape: SkewShape, costs) -> dict:
    """{cost: number of monotone fillings of ``shape`` with content cost}.

    A filling labels the boxes 1..s, weakly increasing east along rows and
    south down columns, with ``k_i`` boxes labelled ``i``.  Its sublevel
    sets are a chain of order ideals ``I_1 <= ... <= I_s = shape`` with
    ``|I_i - I_(i-1)| = k_i``.  The ideals are built once; the chains are
    counted level by level, keeping for each prefix of a cost the number
    of chains that reach each ideal, so costs that share a prefix share
    its levels.
    """
    costs = [tuple(map(index, cost)) for cost in costs]
    for cost in costs:
        if any(k < 0 for k in cost):
            raise ValueError("block sizes must be nonnegative")
        if sum(cost) != shape.size:
            raise ValueError("block sizes must sum to the shape size")
    levels = _order_ideals(shape)
    reached = {(): {0: 1}}  # cost prefix -> ideal -> chains reaching it

    def chains(prefix):
        if prefix not in reached:
            below = sum(prefix[:-1])
            out = {}
            for ideal, ways in chains(prefix[:-1]).items():
                for grown in levels[below + prefix[-1]]:
                    if grown & ideal == ideal:
                        out[grown] = out.get(grown, 0) + ways
            reached[prefix] = out
        return reached[prefix]

    full = (1 << shape.size) - 1
    return {cost: chains(cost).get(full, 0) for cost in costs}

