"""Skew Ferrers diagrams up to translation.

A connected skew diagram is stored as its row signature: one (start, length)
pair per row, top row first, translated so the minimal start column is 0.
Diagrams are drawn in English orientation (x grows east, y grows south), so
starts and right ends weakly decrease going down the rows.  A general shape
is a multiset of connected components, kept in a fixed sorted order so that
equality is structural.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial


@dataclass(frozen=True)
class ConnectedSkew:
    """A connected skew Ferrers diagram, canonical up to translation."""

    rows: tuple  # ((start, length), ...) top row first

    def __post_init__(self):
        rows = tuple((int(s), int(l)) for s, l in self.rows)
        object.__setattr__(self, "rows", rows)
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

    def transpose(self) -> "ConnectedSkew":
        return connected_from_cells({(y, x) for x, y in self.cells()})

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

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()


@dataclass(frozen=True)
class NWPath:
    """North-west boundary path data of a connected skew diagram."""

    ells: tuple  # west run lengths, NE corner first
    vees: tuple  # south run lengths

    def __post_init__(self):
        if len(self.ells) != len(self.vees) or not self.ells:
            raise ValueError("need matching nonempty west and south runs")
        if any(x < 1 for x in self.ells + self.vees):
            raise ValueError("all run lengths are >= 1")

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


def connected_from_cells(cells) -> ConnectedSkew:
    """Canonicalize a connected set of boxes into a ConnectedSkew."""
    rows = {}
    for x, y in cells:
        rows.setdefault(y, []).append(x)
    ys = sorted(rows)
    if ys != list(range(ys[0], ys[0] + len(ys))):
        raise ValueError("rows of a connected diagram are consecutive")
    sig = []
    for y in ys:
        xs = sorted(rows[y])
        if xs != list(range(xs[0], xs[0] + len(xs))):
            raise ValueError("cells in a row must be contiguous")
        sig.append((xs[0], len(xs)))
    shift = min(s for s, _ in sig)
    return ConnectedSkew(tuple((s - shift, l) for s, l in sig))


@dataclass(frozen=True)
class SkewShape:
    """A possibly disconnected skew diagram: a sorted multiset of components."""

    components: tuple

    def __post_init__(self):
        comps = tuple(sorted(self.components, key=ConnectedSkew.sort_key))
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("a shape has at least one box")

    @classmethod
    def connected(cls, rows) -> "SkewShape":
        return cls((ConnectedSkew(tuple(rows)),))

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

    def __lt__(self, other):
        return tuple(c.sort_key() for c in self.components) < tuple(
            c.sort_key() for c in other.components
        )

    def to_json_dict(self):
        return {"components": [[list(r) for r in c.rows] for c in self.components]}

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            tuple(
                ConnectedSkew(tuple(tuple(r) for r in rows))
                for rows in data["components"]
            )
        )

    def ascii_art(self) -> str:
        """Text rendering, components separated by blank lines."""
        blocks = []
        for comp in self.components:
            width = max(s + l for s, l in comp.rows)
            lines = [
                " " * s + "■" * l + " " * (width - s - l)
                for s, l in comp.rows
            ]
            blocks.append("\n".join(line.rstrip() for line in lines))
        return "\n\n".join(blocks)


def skew_class_of_cells(cells) -> SkewShape:
    """Translation class of an explicit set of lattice boxes."""
    remaining = set(cells)
    if not remaining:
        raise ValueError("empty cell sets have no shape class")
    comps = []
    while remaining:
        seed = next(iter(remaining))
        comp = {seed}
        stack = [seed]
        while stack:
            x, y = stack.pop()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in remaining and nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        remaining -= comp
        comps.append(connected_from_cells(comp))
    return SkewShape(tuple(comps))


def transpose(shape: SkewShape) -> SkewShape:
    """Reflect every component across the main diagonal."""
    return SkewShape(tuple(c.transpose() for c in shape.components))


def nw_path(component: ConnectedSkew) -> NWPath:
    return component.nw_path()


def sym_factor(shape: SkewShape) -> int:
    """Product of factorials of multiplicities of identical components."""
    out = 1
    for _, group in itertools.groupby(shape.components):
        out *= factorial(sum(1 for _ in group))
    return out


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


@lru_cache(maxsize=None)
def enum_skew_classes(size: int):
    """All translation classes of ``size`` boxes: multisets of connected
    components with sizes summing to ``size``, in a fixed sorted order."""
    if size < 1:
        raise ValueError("size must be positive")
    out = []

    def extend(remaining, min_size, min_index, acc):
        if remaining == 0:
            out.append(SkewShape(tuple(acc)))
            return
        for d in range(min_size, remaining + 1):
            comps = enum_connected_skew(d)
            start = min_index if d == min_size else 0
            for idx in range(start, len(comps)):
                extend(remaining - d, d, idx, acc + [comps[idx]])

    extend(size, 1, 0, [])
    return tuple(sorted(out))


def _grow(ideal, k, start, needs):
    """Ideals made from ``ideal`` by adding ``k`` cells of index >= ``start``
    in increasing index order, each only once its neighbours ``needs`` are in."""
    if k == 0:
        yield ideal
        return
    for i in range(start, len(needs) - k + 1):
        if not ideal >> i & 1 and (ideal & needs[i]) == needs[i]:
            yield from _grow(ideal | 1 << i, k - 1, i + 1, needs)


def rp_count(shape: SkewShape, block_sizes) -> int:
    """Number of monotone fillings of ``shape`` with content ``block_sizes``.

    A filling labels the boxes 1..s, weakly increasing east along rows and
    south down columns, with ``k_i`` boxes labelled ``i``.  Its sublevel
    sets are a chain of order ideals ``I_1 < ... < I_s = shape`` with
    ``|I_i - I_(i-1)| = k_i``; an ideal holds the west and north neighbours
    of each of its boxes (Stanley, EC1 ch. 3).  Sorted by (component, row,
    column), every box follows its neighbours, so each level adds its boxes
    in increasing order and each chain is counted once.
    """
    block_sizes = tuple(int(k) for k in block_sizes)
    if any(k < 0 for k in block_sizes):
        raise ValueError("block sizes must be nonnegative")
    if sum(block_sizes) != shape.size:
        raise ValueError("block sizes must sum to the shape size")
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

    @lru_cache(maxsize=None)
    def chains(level, ideal):
        if level == len(block_sizes):
            return 1
        return sum(
            chains(level + 1, grown)
            for grown in _grow(ideal, block_sizes[level], 0, needs)
        )

    return chains(0, 0)
