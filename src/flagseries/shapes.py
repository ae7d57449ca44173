"""Skew Ferrers diagrams up to translation.

A connected skew diagram is stored as its row signature: one (start, length)
pair per row, top row first, translated so the minimal start column is 0.
Diagrams are drawn in English orientation (x grows east, y grows south), so
starts and right ends weakly decrease going down the rows.  A general shape
is a multiset of connected components, kept in a fixed sorted order so that
equality is structural.

This module holds what the production paths use: the diagrams, their
boundary paths, the connected diagrams of each size and monotone-filling
counts.  One enumerator yields the row signatures, valid by construction,
and one counter counts fillings as chains of order ideals, from need masks
built straight from the rows.  The multi-gap forms ask for the fillings of
every connected diagram of a size (:func:`component_fillings`), which are
counted once per orbit of the transpose and the 180-degree rotation.
Enumerating whole shape classes is brute force that only the tests run, as
a referee, so it lives in ``tests/referees.py``, beside the shape-by-shape
filling counts.
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

    def grow(rows, remaining):
        # a row put on top starts and ends no further west than the row
        # below, and shares a column with it
        if not remaining:
            found.append(rows)
            return
        s0, l0 = rows[0]
        for l in range(1, remaining + 1):
            for s in range(max(s0, s0 + l0 - l), s0 + l0):
                grow(((s, l),) + rows, remaining - l)

    for l in range(1, size + 1):
        grow(((0, l),), size - l)
    # grow yields valid signatures, so ConnectedSkew's checks are skipped
    return tuple(tuple.__new__(ConnectedSkew, (rows,)) for rows in sorted(found))


def _needs(components) -> list:
    """West/north need masks of the boxes of diagrams given by their row
    signatures, the boxes numbered by (component, row, column): bit j of
    box i's mask is set when box j is its west or north neighbour."""
    needs = []
    for rows in components:
        above = None  # (first box, start, end) of the row above
        for s, l in rows:
            first = len(needs)
            for x in range(s, s + l):
                need = 1 << (len(needs) - 1) if x > s else 0
                if above and above[1] <= x < above[2]:
                    need |= 1 << (above[0] + x - above[1])
                needs.append(need)
            above = first, s, s + l
    return needs


def _order_ideals(needs) -> list:
    """The order ideals by size, as bit masks over the boxes of ``needs``.
    An ideal holds the west and north neighbours of each of its boxes
    (Stanley, EC1 ch. 3).  The last box of an ideal is needed by none of
    its boxes, since east and south neighbours come later in (component,
    row, column) order; so each ideal of size m + 1 is, once, an ideal of
    size m with a box added past its last one whose neighbours are in."""
    boxes = [(1 << i, need) for i, need in enumerate(needs)]
    levels = [[0]]
    for _ in boxes:
        levels.append([
            ideal | bit
            for ideal in levels[-1]
            for bit, need in boxes[ideal.bit_length():]
            if ideal & need == need
        ])
    return levels


def _chain_counts(levels, costs) -> dict:
    """{cost: number of chains of order ideals I_1 <= ... <= I_s = the
    whole diagram with |I_i - I_(i-1)| = k_i}, from the ideals by size.
    The chains are counted level by level, keeping for each prefix of a
    cost the number of chains that reach each ideal, so costs that share a
    prefix share its levels."""
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

    (full,) = levels[-1]
    return {cost: chains(cost).get(full, 0) for cost in costs}


def filling_counts(shape: SkewShape, costs) -> dict:
    """{cost: number of monotone fillings of ``shape`` with content cost}.

    A filling labels the boxes 1..s, weakly increasing east along rows and
    south down columns, with ``k_i`` boxes labelled ``i``.  Its sublevel
    sets are a chain of order ideals ``I_1 <= ... <= I_s = shape`` with
    ``|I_i - I_(i-1)| = k_i``, so the count is :func:`_chain_counts`.
    """
    costs = [tuple(map(index, cost)) for cost in costs]
    for cost in costs:
        if any(k < 0 for k in cost):
            raise ValueError("block sizes must be nonnegative")
        if sum(cost) != shape.size:
            raise ValueError("block sizes must sum to the shape size")
    levels = _order_ideals(_needs(comp.rows for comp in shape.components))
    return _chain_counts(levels, costs)


def _transpose(rows) -> tuple:
    """Row signature of the diagram reflected in its main diagonal: row x
    of the image is column x, which starts at its top box's row."""
    s0, l0 = rows[0]  # the top row reaches furthest east
    tops, lengths = [0] * (s0 + l0), [0] * (s0 + l0)
    for y in range(len(rows) - 1, -1, -1):
        s, l = rows[y]
        for x in range(s, s + l):
            tops[x] = y
            lengths[x] += 1
    return tuple(zip(tops, lengths))


def _rotate(rows) -> tuple:
    """Row signature of the diagram turned through 180 degrees."""
    s0, l0 = rows[0]
    return tuple((s0 + l0 - s - l, l) for s, l in reversed(rows))


def component_fillings(size: int, costs) -> list:
    """(component, {cost: fillings}) for every connected diagram of ``size``
    boxes, in the order of :func:`enum_connected_skew`.  Each cost is a
    content of ``size`` boxes, and a count is as in :func:`filling_counts`.

    The fillings are counted once per orbit of the transpose T and the
    180-degree rotation R.  Both are involutions and they commute, so a
    diagram S has the images S, T(S), R(S) and RT(S), all of them
    connected skew diagrams of ``size`` boxes:

    - T maps a box (x, y) to (y, x), so the rows of T(S) are the columns of
      S.  A filling f of S gives the filling f(T(p)) of T(S), increasing
      along rows because f increases down columns and conversely, and with
      the same content.  So T(S) has the fillings of S for every content.
    - R maps a box (x, y) to (-x, -y), up to translation.  A filling f of S
      with labels 1..m gives g(R(p)) = m + 1 - f(p) on R(S): going east or
      south in R(S) goes west or north in S, where f weakly decreases, so g
      weakly increases, and g has as many labels i as f has labels
      m + 1 - i.  So R(S) with content (k_1, ..., k_m) has the fillings of
      S with content (k_m, ..., k_1), and by the first point so has RT(S).

    Each orbit counts its first diagram in enumeration order, for the costs
    and, unless R(S) is S or T(S), their reverses; the images read them.
    """
    costs = list(costs)
    both = costs + [cost[::-1] for cost in costs if cost[::-1] not in costs]
    found = {}  # row signature -> {cost: fillings}
    out = []
    for comp in enum_connected_skew(size):
        rows = comp.rows
        if rows not in found:
            flipped, turned = _transpose(rows), _rotate(rows)
            reverse = turned != rows and turned != flipped
            levels = _order_ideals(_needs((rows,)))
            counts = _chain_counts(levels, both if reverse else costs)
            found[rows] = found[flipped] = {cost: counts[cost] for cost in costs}
            if reverse:
                found[turned] = found[_rotate(flipped)] = {
                    cost: counts[cost[::-1]] for cost in costs
                }
        out.append((comp, found[rows]))
    return out
