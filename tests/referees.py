"""Truncated constructions, brute-force censuses and checks that only the
tests use.

Production builds every rational form exactly and expands series from the
forms.  The helpers here build the same answers a second way, so the
tests can referee the exact forms against them: the truncated placement DP
of one shape, clearing a truncated series over a claimed denominator at a
degree bound, the multi-gap form as an exact sum over shape classes, the
rank-r series as products of expanded one-gap rows, and the rank-r series
as a coefficient of a power of the one-gap generating series.  The shape
classes of a size, their transposes and filling counts, and the census of
nested pairs by the class of their difference come by enumeration.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, perm

from flagseries import kernels
from flagseries.engine import (
    _class_numerator,
    _compute_relative_dense,
    _grow_add,
    rational_form,
)
from flagseries.partitions import contains, enum_partitions
from flagseries.series import QSeries, RationalForm
from flagseries.shapes import (
    ConnectedSkew,
    SkewShape,
    enum_connected_skew,
    filling_counts,
)


def truncated_ratio(shape: SkewShape, n: int) -> QSeries:
    """The single-shape ratio (insertion series / partition series) to q^n,
    from the truncated placement DP rather than the exact form."""
    return QSeries.from_dense("q", _compute_relative_dense(shape, n), n)


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
    return SkewShape(
        tuple(
            connected_from_cells({(y, x) for x, y in comp.cells()})
            for comp in shape.components
        )
    )


def sym_factor(shape: SkewShape) -> int:
    """Product of factorials of multiplicities of identical components."""
    out = 1
    for _, group in itertools.groupby(shape.components):
        out *= factorial(sum(1 for _ in group))
    return out


def rp_count(shape: SkewShape, block_sizes) -> int:
    """Number of monotone fillings of ``shape`` with content
    ``block_sizes``: ``filling_counts`` for one cost."""
    block_sizes = tuple(int(k) for k in block_sizes)
    return filling_counts(shape, [block_sizes])[block_sizes]


def insertion_count(shape: SkewShape, m: int) -> int:
    """Number of pairs nu c mu with |nu| = m whose set difference realizes
    ``shape`` up to translation, by exhaustive flag enumeration."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _insertion_census(shape.size, m).get(shape, 0)


@lru_cache(maxsize=None)
def _insertion_census(size: int, m: int) -> dict:
    """Shape class -> number of pairs nu c mu with |nu| = m and
    |mu| = m + size whose set difference realizes it: every pair is
    enumerated and classified once."""
    census = {}
    for mu in enum_partitions(m + size):
        mu_cells = mu.cells()
        for nu in enum_partitions(m):
            if contains(nu, mu):
                shape = skew_class_of_cells(mu_cells - nu.cells())
                census[shape] = census.get(shape, 0) + 1
    return census


def count_partitions_with_k_parts(n: int, k: int) -> int:
    """Number of partitions of n into exactly k parts (0 when infeasible)."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    return _parts_table(n, k)


@lru_cache(maxsize=None)
def _parts_table(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > n:
        return 0
    # either a part equal to 1 is present, or subtract 1 from every part
    return _parts_table(n - 1, k - 1) + _parts_table(n - k, k)


class RationalityError(ValueError):
    """A series failed a rationality check against a claimed denominator."""


def clear_denominator(series: QSeries, denominator, max_deg: int, guard: int = 10):
    """Extract the rational form numerator of ``series`` over a fixed
    product of cyclotomic-type factors prod_j (1 - q^j)^{e_j}.

    The series truncation must reach ``max_deg`` plus the denominator degree
    plus ``guard``; every coefficient of the cleared numerator in degrees
    (max_deg, truncation] must vanish, otherwise the series is not rational
    with the claimed denominator at this truncation.
    """
    if len(series.variables) != 1:
        raise ValueError("rational forms are extracted from one-variable series")
    if guard < 1:
        raise ValueError(f"guard must be at least 1, got {guard}")
    denominator = {int(j): int(e) for j, e in dict(denominator).items()}
    den_deg = sum(j * e for j, e in denominator.items())
    n = series.truncation[0]
    if n < max_deg + den_deg + guard:
        raise ValueError(
            f"truncation {n} too small: need at least {max_deg + den_deg + guard}"
        )
    num = series.dense()
    for j, e in sorted(denominator.items()):
        for _ in range(e):
            # multiply in place by (1 - q^j), highest degree first
            for i in range(n, j - 1, -1):
                num[i] -= num[i - j]
    for i in range(max_deg + 1, n + 1):
        if num[i]:
            raise RationalityError(
                "series is not rational with the claimed denominator at this "
                f"truncation (degree {i} coefficient {num[i]})"
            )
    del num[max_deg + 1 :]
    while num and not num[-1]:
        num.pop()
    return RationalForm(num, denominator)


def rational_form_degree_bound(D: int) -> int:
    """Numerator degree bound for the one-gap ratio over prod_{j<=D}(1-q^j)."""
    return comb(D, 2) + comb(D - 1, 2) + (D * D + 3) // 4


def rational_form_k_degree_bound(K: int) -> int:
    """Numerator degree bound for a multi-gap ratio: (5/4)K^2 - K/2 + 1."""
    return (5 * K * K - 2 * K + 4 + 3) // 4


def class_sum_form_k(block_sizes) -> RationalForm:
    """Closed rational form of FZ_k / Z over prod_{j=1}^{K} (1 - q^j), exact:
    the filling-weighted sum of class numerators.  Both are invariant under
    transposition, so each orbit is evaluated once, through its smaller key.
    """
    block_sizes = tuple(int(x) for x in block_sizes)
    if any(x < 0 for x in block_sizes):
        raise ValueError("gap sizes must be nonnegative")
    K = sum(block_sizes)
    if K < 1:
        raise ValueError("the gap sizes must sum to at least 1")
    numerator = []
    for shape in enum_skew_classes(K):
        key, flipped = shape.key(), transpose(shape).key()
        if flipped < key:
            continue
        weight = rp_count(shape, block_sizes) * (1 if flipped == key else 2)
        if weight:
            _grow_add(numerator, _class_numerator(shape), 0, weight)
    return RationalForm(numerator, {j: 1 for j in range(1, K + 1)})


def ratio_rD_dense(r: int, D: int, n: int) -> list:
    """FQ_{r,D} / Z^r, dense to n, as truncated products of the expanded
    one-gap rows FZ_d / Z: each gap multiset lam, with multiplicities m_i,
    can be given distinct colours in r! / ((r - len(lam))! prod_i m_i!) ways."""
    # Largest gap first: its numerators then serve every smaller row.
    rows = {d: rational_form((d,)).expand(n).dense() for d in range(D, -1, -1)}
    acc = [0] * (n + 1)
    for lam in enum_partitions(D):
        if len(lam) > r:
            continue
        weight = perm(r, len(lam))
        for m in lam.multiplicities().values():
            weight //= factorial(m)
        prod = [1] + [0] * n
        for part in lam:
            prod = kernels.mul_trunc(prod, rows[part], n)
        kernels.addmul_shifted(acc, prod, 0, weight, n)
    return acc


def fq_rD_via_generating(r: int, D: int, truncation: int) -> QSeries:
    """FQ_{r,D} extracted as the v^D coefficient of (sum_d FZ_d v^d)^r."""
    n = truncation
    # dense-in-v list of dense-in-q lists
    fz = [rational_form((d,)).expand(n, z_power=1).dense() for d in range(D + 1)]
    power = [[1] + [0] * n] + [[0] * (n + 1) for _ in range(D)]
    for _ in range(r):
        nxt = [[0] * (n + 1) for _ in range(D + 1)]
        for a in range(D + 1):
            if not any(power[a]):
                continue
            for b in range(D + 1 - a):
                prod = kernels.mul_trunc(power[a], fz[b], n)
                kernels.addmul_shifted(nxt[a + b], prod, 0, 1, n)
        power = nxt
    return QSeries.from_dense("q", power[D], n)
