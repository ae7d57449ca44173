"""Partition, flag and coloured-flag counts.

The oracles here are the ground truth the series engines are tested
against: each flag count is obtained by direct enumeration of partitions
and nestings, not from any closed formula.  ``count_nested_flags`` tests
every partition of each inner size against each outer one, on cell
bitsets: nu is inside mu iff no cell of nu lies outside mu, one integer
operation per pair.  ``coloured_flag_counts`` convolves the one-colour
counts of a box, enumerated once per box, and keeps the last table it
built for the box, so the (r + 1)-colour table is one convolution from
the r-colour one.  Some counts also run in production.
``nested_pair_counts`` builds the rank-one table behind ``globalize`` by
a walk over outer partitions, on count vectors packed and read back in
the ``kernels`` convention, and ``count_nested_flags`` is its referee.
``partition_count`` sizes the walk's slots and the ``oracle`` command's
work estimate against its cap.  The ``oracle`` command prints
``count_nested_flags`` and ``count_coloured_flags``, and ``verify`` checks
the series against ``count_nested_flags`` and ``coloured_flag_counts``.
The census of nested pairs by the shape class of their difference and the
rowwise test ``contains``, which only the tests use, live in
``tests/referees.py``, so this module imports no shapes.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, index, le, sub

from . import kernels


class Partition(tuple):
    """Weakly decreasing tuple of positive parts."""

    def __new__(cls, parts=()):
        parts = tuple(map(index, parts))
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    @property
    def num_parts(self) -> int:
        return len(self)

    def multiplicities(self) -> dict:
        """Map part value -> multiplicity."""
        out = {}
        for p in self:
            out[p] = out.get(p, 0) + 1
        return out

    def cells(self):
        return {(x, y) for y, row in enumerate(self) for x in range(row)}

    def conjugate(self) -> "Partition":
        if not self:
            return self
        return Partition(
            tuple(sum(1 for p in self if p > i) for i in range(self[0]))
        )


class FlagSpec(tuple):
    """Weakly increasing tuple of nonnegative sizes for a nesting."""

    def __new__(cls, sizes=()):
        sizes = tuple(map(index, sizes))
        if any(n < 0 for n in sizes):
            raise ValueError("sizes must be nonnegative")
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be weakly increasing")
        return super().__new__(cls, sizes)


@lru_cache(maxsize=None)
def enum_partitions(n: int):
    """All partitions of n, in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    # gen yields valid parts, so Partition's checks are skipped
    return tuple(tuple.__new__(Partition, p) for p in gen(n, n))


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n), via the classic product-expansion recurrence."""
    if n < 0:
        return 0
    table = [1] + [0] * n
    for j in range(1, n + 1):
        for m in range(j, n + 1):
            table[m] += table[m - j]
    return table[n]


def count_nested_flags(spec) -> int:
    """Number of nested chains of partitions with the given sizes, by
    exhaustive enumeration over sub-partitions."""
    spec = FlagSpec(spec)
    if not spec:
        return 1
    width = 1 << spec[-1].bit_length()
    outers = _cell_masks(spec[-1], width)
    if len(spec) == 1:
        return len(outers)
    return sum(_chains_below(mu, spec[:-1], width) for mu in outers)


@lru_cache(maxsize=None)
def _cell_masks(n: int, width: int):
    """Cell bitsets of the partitions of n, in ``enum_partitions`` order:
    row y, column x is bit ``y * width + x``."""
    return tuple(
        sum(((1 << part) - 1) << (y * width) for y, part in enumerate(mu))
        for mu in enum_partitions(n)
    )


@lru_cache(maxsize=None)
def _chains_below(outer, sizes, width) -> int:
    """Chains lambda_1 c ... c lambda_k c mu with the given (nonempty) inner
    sizes, mu the partition with cell bitset ``outer``.

    nu c mu iff ``cells(nu) & ~cells(mu) == 0`` once ``width`` exceeds
    mu's largest part: a row of nu longer than mu's row y sets the bit of
    column mu_y in row y, which mu never has.
    """
    spare = ~outer
    inside = [nu for nu in _cell_masks(sizes[-1], width) if not nu & spare]
    if len(sizes) == 1:
        return len(inside)
    return sum(_chains_below(nu, sizes[:-1], width) for nu in inside)


def nested_pair_counts(max1: int, max2: int) -> dict:
    """``{(a, b): #{nu c mu : |nu| = a, |mu| = b}}`` for a <= max1 and
    a <= b <= max2.

    Every outer partition mu with |mu| <= max2 is visited once, its rows
    added in decreasing order.  ``suffix[p]`` holds the counts, by size
    <= max1, of the nu inside the rows so far whose last row is >= p
    (nu padded with zero rows).  Appending a row r gives the nu whose new
    row is p <= r as ``suffix[p]`` shifted by p; every prefix of mu is a
    smaller partition, so each mu costs one row of work.

    A count vector by size is one int in the ``kernels`` packing, a slot
    of ``bits`` bits per size a <= max1, so adding vectors is one int
    addition, and shifting by p drops the sizes past max1 under one mask.
    Every count, final or partial, is nonnegative and at most
    p(a) * p(b) <= p(max1) * p(max2), the bound the signed slots are
    sized for, and ``kernels._unpacker`` reads the rows back.
    """
    if max1 < 0 or max2 < 0:
        raise ValueError("sizes must be nonnegative")
    width = max1 + 1
    bits = kernels._signed_bits(partition_count(max1) * partition_count(max2))
    mask = (1 << (bits * width)) - 1
    rows = [0] * (max2 + 1)

    def walk(size, top, suffix):
        rows[size] += suffix[0]
        for r in range(min(top, max2 - size), 0, -1):
            acc = 0
            new = [None] * (r + 1)
            for p in range(r, -1, -1):
                acc = (acc + (suffix[p] << (bits * p))) & mask
                new[p] = acc
            walk(size + r, r, new)

    walk(0, max2, [1] * (max2 + 1))
    unpacked = list(map(kernels._unpacker(bits, width), rows))
    return {
        (a, b): unpacked[b][a] for a in range(width) for b in range(a, max2 + 1)
    }


def count_coloured_flags(r: int, spec) -> int:
    """Number of r-tuples of nested chains whose sizes sum to ``spec``."""
    return _coloured_table(r, spec)[FlagSpec(spec)]


def coloured_flag_counts(r: int, box) -> dict:
    """``{v: count_coloured_flags(r, v)}`` for every weakly increasing
    v <= box, obtained by convolving the one-colour counts over all
    splittings of each size vector into r weakly increasing summand
    vectors.  The caller owns the returned dict."""
    return dict(_coloured_table(r, box))


#: box -> (r, the r-colour table of the box), the last table built
_coloured_tops = {}


def _coloured_table(r, box):
    """The r-colour table of ``box``, grown one colour at a time from the
    last table built for that box, or from the empty colouring when that
    table has more colours than r."""
    if r < 1:
        raise ValueError("the number of colours must be positive")
    box = FlagSpec(box)
    top, table = _coloured_tops.get(box, (0, None))
    if table is None or top > r:
        top, table = 0, {(0,) * len(box): 1}
    single = _one_colour_counts(box)
    for _ in range(r - top):
        merged = {}
        for partial, cp in table.items():
            room = tuple(map(sub, box, partial))
            for v, cv in single:
                if all(map(le, v, room)):
                    w = tuple(map(add, partial, v))
                    merged[w] = merged.get(w, 0) + cp * cv
        table = merged
    _coloured_tops[box] = (r, table)
    return table


@lru_cache(maxsize=None)
def _one_colour_counts(box):
    """(v, count_nested_flags(v)) for every weakly increasing v <= box."""
    return tuple((v, count_nested_flags(v)) for v in _increasing_vectors_below(box))


def _increasing_vectors_below(spec):
    """All weakly increasing vectors componentwise <= spec."""
    out = []

    def build(i, acc):
        if i == len(spec):
            out.append(tuple(acc))
            return
        lo = acc[-1] if acc else 0
        for v in range(lo, spec[i] + 1):
            build(i + 1, acc + [v])

    build(0, [])
    return tuple(out)

