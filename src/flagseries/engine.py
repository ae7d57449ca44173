"""Fast evaluation of flag generating series over skew diagram classes.

For a connected diagram with north-west path data (west runs ell_i, south
runs v_i, totals L and V, offset weight B), placing it against the boundary
staircase of an ambient partition at offset j >= 0 contributes the weight

    q^(j*V + B) * prod_{p=1}^{L-1} (1 - q^(j+p)),

and the ratio (flag series / partition series) is the sum of these weights
over all offsets.  Disconnected diagrams sum the product of component
weights over placements at pairwise disjoint offset intervals of lengths
L_c, one weight per component, with identical components unordered.

Every placement sum is one dynamic program over a budget vector b.
Components are merged into groups g of equal cost vector cost_g and west
length L_g, with summed weight W_g(j).  Conditioning on the leftmost
placed component, the sum U(b, j) over placements with every offset >= j
satisfies

    U(b, j) = U(b, j+1) + sum_g W_g(j) * U(b - cost_g, j + L_g),
    U(0, j) = 1,

and the ratio is U(b, 0) (the transfer-matrix method, Stanley EC1 4.7).
A single shape spends one unit per component of each type, truncated at
the order the caller asks for.  Multi-gap sums weight each shape by its
filling count: the number of chains of order ideals that grow it from
empty by the gap sizes in turn.

The one-gap sum FZ_D / Z spends s boxes of the budget (D,) per component
of size s.  Its groups come from a row DP instead of enumerated shapes,
and summing the geometric series in j turns the DP into an exact integer
recurrence for the numerators P_d of FZ_d / Z = P_d / prod_{i<=d} (1 - q^i),
d <= D: no truncation, no guard and no degree bound.  Series callers expand
P_d to the order they need.  The truncated DP over enumerated components,
the per-class sum and the combinatorial insertion oracle in
:mod:`flagseries.partitions` referee all of this in the tests.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from math import comb

from . import kernels
from .series import QSeries, RationalForm, clear_denominator, expand_dense
from .shapes import (
    ConnectedSkew,
    SkewShape,
    enum_skew_classes,
    rp_count,
    transpose,
)

__all__ = [
    "PlacementWeight",
    "default_guard",
    "fz_lambda",
    "fz_D",
    "fz_k",
    "fz_ratio_lambda",
    "fz_ratio_D",
    "fz_ratio_k",
    "partition_series",
    "rational_form_lambda",
    "rational_form_D",
    "rational_form_k",
    "rational_form_degree_bound",
    "rational_form_k_degree_bound",
]


def default_guard() -> int:
    """Trailing-coefficient guard for rationality checks (env-overridable)."""
    raw = os.environ.get("FLAGSERIES_GUARD", "10")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"FLAGSERIES_GUARD must be an integer >= 1, got {raw!r}")
    return int(raw)


@lru_cache(maxsize=None)
def _z_dense(n: int) -> tuple:
    """Partition generating function, dense up to degree n."""
    out = [1] + [0] * n
    for j in range(1, n + 1):
        for m in range(j, n + 1):
            out[m] += out[m - j]
    return tuple(out)


def partition_series(truncation: int) -> QSeries:
    """The partition generating function as a q-series."""
    return QSeries.from_dense("q", list(_z_dense(truncation)), truncation)


class PlacementWeight:
    """Evaluated weight of one connected component at offset j.

    The weight polynomial is q^(j*V + B) * prod_{p=1}^{L-1} (1 - q^(j+p));
    its expansion is stored as sparse terms (t, c, sign) with exponent
    j*(V+t) + B + c, one term per subset of the L-1 binomial factors.
    """

    __slots__ = ("L", "V", "B", "terms")

    def __init__(self, component: ConnectedSkew):
        path = component.nw_path()
        self.L = path.west_total
        self.V = path.south_total
        self.B = path.offset_weight
        terms = []
        for t in range(self.L):
            for subset in itertools.combinations(range(1, self.L), t):
                terms.append((self.V + t, self.B + sum(subset), (-1) ** t))
        self.terms = tuple(sorted(terms))

    def exponents_at(self, offset: int, n: int):
        """(exponent, sign) pairs of the weight at the given offset."""
        for tplus, base, sign in self.terms:
            e = offset * tplus + base
            if e <= n:
                yield e, sign

    def degree_at(self, offset: int) -> int:
        return offset * self.V + self.B + comb(self.L, 2) + (self.L - 1) * offset


def _add_weight(groups, cost, component) -> None:
    """Merge the placement weight of ``component`` into its (cost, L) group."""
    weight = PlacementWeight(component)
    terms = groups.setdefault((cost, weight.L), {})
    for tplus, base, sign in weight.terms:
        terms[tplus, base] = terms.get((tplus, base), 0) + sign


def _relative_dense(groups, budget, n: int) -> dict:
    """Placement sums U(b, 0), dense to n, for every budget b <= ``budget``.

    ``groups`` maps (cost, L) to merged terms {(t, base): coef}: a group
    placed at offset j has weight sum coef * q^(j*t + base) and occupies
    the offsets [j, j + L).  Tables U(b, j) are built for sub-budgets
    first, in lexicographic order, so every U(b - cost, .) is ready.
    """
    moves = []
    for (cost, L), terms in groups.items():
        terms = sorted((t, base, c) for (t, base), c in terms.items() if c)
        if terms:
            lowest = min(base for _, base, _ in terms)
            moves.append((cost, L, terms[0][0], lowest, terms))
    zero = (0,) * len(budget)
    tables = {zero: None}
    out = {zero: [1] + [0] * n}
    for b in itertools.product(*(range(m + 1) for m in budget)):
        if b == zero:
            continue
        steps = []
        for cost, L, tmin, lowest, terms in moves:
            sub = tuple(x - c for x, c in zip(b, cost))
            if min(sub) >= 0:
                steps.append((tables[sub], L, tmin, lowest, terms))
        desc = []  # U(b, j) for j descending, from the first nonzero one
        prev = None
        for j in range(n, -1, -1):
            arr = prev
            for table, L, tmin, lowest, terms in steps:
                if j * tmin + lowest > n:
                    continue
                if table is None:
                    src = None
                elif j + L < len(table):
                    src = table[j + L]
                else:
                    continue
                for t, base, coef in terms:
                    e = j * t + base
                    if e > n:
                        continue
                    if arr is prev:
                        arr = [0] * (n + 1) if prev is None else list(prev)
                    if src is None:
                        arr[e] += coef
                    else:
                        kernels.addmul_shifted(arr, src, e, coef, n)
            if arr is not None:
                desc.append(arr)
            prev = arr
        desc.reverse()
        tables[b] = desc
        out[b] = desc[0] if desc else [0] * (n + 1)
    return out


def _compute_relative_dense(shape: SkewShape, n: int) -> list:
    """(flag series / partition series) for one shape class, dense to n.

    The budget counts the components of each type; placing one component
    spends one unit of its type.
    """
    types = [
        (comp, sum(1 for _ in group))
        for comp, group in itertools.groupby(shape.components)
    ]
    budget = tuple(mult for _, mult in types)
    groups = {}
    for i, (comp, _) in enumerate(types):
        cost = tuple(int(i == k) for k in range(len(types)))
        _add_weight(groups, cost, comp)
    return _relative_dense(groups, budget, n)[budget]


def fz_ratio_lambda(shape: SkewShape, truncation: int) -> QSeries:
    """The ratio (insertion series of ``shape``) / (partition series)."""
    return QSeries.from_dense(
        "q", _compute_relative_dense(shape, truncation), truncation
    )


def fz_lambda(shape: SkewShape, truncation: int) -> QSeries:
    """Series whose q^m coefficient counts insertions of ``shape`` into all
    partitions of size m (pairs nu c mu with difference class ``shape``)."""
    out = kernels.mul_trunc(
        _compute_relative_dense(shape, truncation),
        list(_z_dense(truncation)),
        truncation,
    )
    return QSeries.from_dense("q", out, truncation)


def _grow_add(dst: list, src, shift: int, coef: int = 1) -> None:
    """dst += coef * q^shift * src, lengthening dst as needed."""
    top = shift + len(src)
    if len(dst) < top:
        dst.extend([0] * (top - len(dst)))
    kernels.addmul_shifted(dst, src, shift, coef, top - 1)


def _times_one_minus(poly: list, i: int) -> list:
    """poly * (1 - q^i), exact."""
    out = poly + [0] * i
    for m in range(len(out) - 1, i - 1, -1):
        out[m] -= out[m - i]
    return out


def _mul(a, b) -> list:
    """Full product of two dense polynomials."""
    return kernels.mul_trunc(a, b, len(a) + len(b) - 2)


@lru_cache(maxsize=None)
def _q_binomial(n: int, k: int) -> tuple:
    """Gaussian binomial [n choose k]_q for 0 <= k <= n, dense."""
    if k == 0 or k == n:
        return (1,)
    out = list(_q_binomial(n - 1, k - 1))
    _grow_add(out, _q_binomial(n - 1, k), k)
    return tuple(out)


def _one_gap_groups(D: int) -> dict:
    """Merged placement weights of every connected shape of size <= D.

    Maps (s, L) to {t: A}, where the components of size s and west length
    L have summed weight sum_t A_t(q) * q^(j*t) at offset j: the group
    terms of the one-gap placement DP, without enumerating shapes.  A row
    DP over (last row length, s, L, V) yields sum_c q^(B_c) for each
    (s, L, V): a row of length l1 under a row of length l0 starts
    delta >= max(0, l1 - l0), delta < l1, columns further west, adding l1
    boxes, one row, delta to L and delta * (rows above) to B.  The factor
    prod_{p<L} (1 - x q^p) then expands by the q-binomial theorem as
    sum_u (-1)^u q^(u(u+1)/2) [L-1 choose u]_q x^u, with t = V + u.
    """
    layers = [{} for _ in range(D + 1)]  # s -> (last row length, L, V) -> poly
    for l in range(1, D + 1):
        layers[l][l, l, 1] = [1]
    groups = {}
    for s in range(1, D + 1):
        by_path = {}  # (L, V) -> sum_c q^(B_c)
        for (l0, L, V), poly in layers[s].items():
            _grow_add(by_path.setdefault((L, V), []), poly, 0)
            for l1 in range(1, D - s + 1):
                for delta in range(max(0, l1 - l0), l1):
                    target = layers[s + l1].setdefault((l1, L + delta, V + 1), [])
                    _grow_add(target, poly, delta * V)
        for (L, V), poly in by_path.items():
            terms = groups.setdefault((s, L), {})
            for u in range(L):
                binom = [0] * (u * (u + 1) // 2) + list(_q_binomial(L - 1, u))
                _grow_add(terms.setdefault(V + u, []), _mul(poly, binom), 0, (-1) ** u)
    return groups


#: D -> exact numerators (P_0, ..., P_D); a smaller D is served from a
#: larger entry.  Entries are only ever added, so callers need no lock.
_numerators_cache: dict = {}


def _one_gap_numerators(D: int) -> tuple:
    """P_d with FZ_d / Z = P_d / prod_{i<=d} (1 - q^i), for every d <= D.

    Writing U(b, j) = sum_T q^(j*T) R_{b,T} in the placement DP and summing
    the geometric series in j gives
    R_{b,T} = (1 - q^T)^(-1) sum coef * q^(base + L*T') * R_{b-s,T'} over
    group terms with t + T' = T.  Every t >= 1 and a component of size s
    has t <= s, so T' < T <= b.  With N_{b,T} = R_{b,T} prod_{i<=T} (1 - q^i),
    N_{0,0} = 1 and

        N_{b,T} = sum_{T'<T} X_{b,T,T'} prod_{T'<i<T} (1 - q^i),
        X_{b,T,T'} = sum_{s,L} A_{s,L,T-T'} q^(L*T') N_{b-s,T'},
        P_b = sum_{T<=b} N_{b,T} prod_{T<i<=b} (1 - q^i),

    both sums taken by Horner's rule: integer polynomial arithmetic with no
    division, no truncation and no degree bound.
    """
    for D2, nums in list(_numerators_cache.items()):
        if D2 >= D:
            return nums[: D + 1]
    groups = _one_gap_groups(D)
    # shifted[s, T', t] = sum_L q^(L*T') A_{s,L,t}
    shifted = {}
    for (s, L), terms in groups.items():
        for t, poly in terms.items():
            for T0 in range(D - s + 1):
                _grow_add(shifted.setdefault((s, T0, t), []), poly, L * T0)
    N = [{0: [1]}]  # N[b][T]
    nums = [(1,)]
    for b in range(1, D + 1):
        row = {}
        for T in range(1, b + 1):
            acc = []
            for T0 in range(T):
                if T0 and acc:
                    acc = _times_one_minus(acc, T0)
                for s in range(1, b - T0 + 1):
                    src = N[b - s].get(T0)
                    weight = shifted.get((s, T0, T - T0))
                    if src and weight:
                        _grow_add(acc, _mul(src, weight), 0)
            row[T] = acc
        N.append(row)
        acc = []
        for T in range(1, b + 1):
            if acc:
                acc = _times_one_minus(acc, T)
            _grow_add(acc, row[T], 0)
        while acc and not acc[-1]:
            acc.pop()
        nums.append(tuple(acc))
    nums = tuple(nums)
    _numerators_cache[D] = nums
    return nums


def _ratio_rows(D: int, n: int) -> list:
    """FZ_d / Z, dense to n, for every d <= D, from the exact numerators."""
    return [
        expand_dense(num, dict.fromkeys(range(1, d + 1), 1), n)
        for d, num in enumerate(_one_gap_numerators(D))
    ]


def fz_ratio_D(D: int, truncation: int) -> QSeries:
    """FZ_D / Z (the sum of shape ratios over all classes of size D),
    expanded from its exact numerator."""
    if D < 0:
        raise ValueError("D must be nonnegative")
    denominator = dict.fromkeys(range(1, D + 1), 1)
    out = expand_dense(_one_gap_numerators(D)[D], denominator, truncation)
    return QSeries.from_dense("q", out, truncation)


def fz_D(D: int, truncation: int) -> QSeries:
    """Series whose q^n coefficient is the number of nested partition pairs
    of sizes (n, n+D); equivalently the Euler characteristic of the punctual
    nested Hilbert scheme with that size vector."""
    rel = fz_ratio_D(D, truncation).dense()
    out = kernels.mul_trunc(rel, list(_z_dense(truncation)), truncation)
    return QSeries.from_dense("q", out, truncation)


def fz_ratio_k(block_sizes, truncation: int) -> QSeries:
    """Filling-weighted sum of shape ratios (equals FZ_k / Z).

    Both the filling count and the ratio are invariant under transposition,
    so each transposition orbit is evaluated once, through its smaller key.
    """
    block_sizes = tuple(int(x) for x in block_sizes)
    if any(x < 0 for x in block_sizes):
        raise ValueError("gap sizes must be nonnegative")
    K = sum(block_sizes)
    if K == 0:
        return QSeries.one(("q",), (truncation,))
    acc = [0] * (truncation + 1)
    for shape in enum_skew_classes(K):
        key, flipped = shape.key(), transpose(shape).key()
        if flipped < key:
            continue
        weight = rp_count(shape, block_sizes) * (1 if flipped == key else 2)
        if weight:
            kernels.addmul_shifted(
                acc, _compute_relative_dense(shape, truncation), 0, weight, truncation
            )
    return QSeries.from_dense("q", acc, truncation)


def fz_k(block_sizes, truncation: int) -> QSeries:
    """Series whose q^n coefficient counts nested chains of partitions with
    sizes (n, n+k_1, n+k_1+k_2, ...)."""
    rel = fz_ratio_k(block_sizes, truncation).dense()
    out = kernels.mul_trunc(rel, list(_z_dense(truncation)), truncation)
    return QSeries.from_dense("q", out, truncation)


def rational_form_degree_bound(D: int) -> int:
    """Numerator degree bound for the one-gap ratio over prod_{j<=D}(1-q^j)."""
    return comb(D, 2) + comb(D - 1, 2) + (D * D + 3) // 4


def rational_form_k_degree_bound(K: int) -> int:
    """Numerator degree bound for a multi-gap ratio: (5/4)K^2 - K/2 + 1."""
    return (5 * K * K - 2 * K + 4 + 3) // 4


def rational_form_lambda(shape: SkewShape, guard: int | None = None) -> RationalForm:
    """Closed rational form of the single-shape ratio.

    Connected shapes use the refined denominator
    prod_{i=max(L,V)}^{L+V-1} (1 - q^i); general shapes use
    prod_{j=1}^{size} (1 - q^j).  The re-expansion identity is enforced by
    the guarded denominator clearing.
    """
    if guard is None:
        guard = default_guard()
    if shape.is_connected:
        path = shape.components[0].nw_path()
        lo = max(path.west_total, path.south_total)
        hi = path.length - 1
        denominator = {i: 1 for i in range(lo, hi + 1)}
        max_deg = comb(path.length - 1, 2) + path.offset_weight
    else:
        D = shape.size
        denominator = {j: 1 for j in range(1, D + 1)}
        max_deg = rational_form_degree_bound(D)
    den_deg = sum(j * e for j, e in denominator.items())
    truncation = max_deg + den_deg + guard
    ratio = fz_ratio_lambda(shape, truncation)
    return clear_denominator(ratio, denominator, max_deg, guard)


def rational_form_D(D: int) -> RationalForm:
    """Closed rational form of FZ_D / Z over prod_{j=1}^{D} (1 - q^j), exact."""
    if D < 1:
        raise ValueError("D must be positive")
    return RationalForm(_one_gap_numerators(D)[D], {j: 1 for j in range(1, D + 1)})


def rational_form_k(block_sizes, guard: int | None = None) -> RationalForm:
    """Closed rational form of FZ_k / Z over prod_{j=1}^{K} (1 - q^j)."""
    block_sizes = tuple(int(x) for x in block_sizes)
    K = sum(block_sizes)
    if K < 1:
        raise ValueError("the gap sizes must sum to at least 1")
    if guard is None:
        guard = default_guard()
    max_deg = rational_form_k_degree_bound(K)
    truncation = max_deg + K * (K + 1) // 2 + guard
    ratio = fz_ratio_k(block_sizes, truncation)
    return clear_denominator(ratio, {j: 1 for j in range(1, K + 1)}, max_deg, guard)
