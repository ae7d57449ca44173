"""Truncated constructions, brute-force censuses and checks that only the
tests use.

Production builds every rational form exactly and expands series from the
forms.  The helpers here build the same answers a second way, so the
tests can referee the exact forms against them: the truncated placement DP
of one shape, clearing a truncated series over a claimed denominator at a
degree bound, the multi-gap form as an exact sum over shape classes, the
rank-r series as products of expanded one-gap rows, and the rank-r series
as a coefficient of a power of the one-gap generating series.  The shape
classes of a size, their transposes and rotations, the filling counts of
each connected shape one by one, and the census of
nested pairs by the class of their difference come by enumeration.  The
flag count by filtering partitions through ``contains`` referees the
bitset count, and the Göttsche recurrence run on ``LPoly`` values
referees the one run on integer rows.  ``ps_inv`` inverts a unit series,
building the other side of the functional equations whose products
``verify`` checks.  The list-arithmetic versions of the
packed-int paths (the rank-one nested-pair table, by a walk over outer
partitions, the row products of ``ps_mul``, the rank-r sum and the
numerator recurrence behind the one-gap, multi-gap and single-shape
forms) referee them.  The numerator recurrence's slot bound is refereed
by the whole recurrence run on l1 norms, and its budget rule for gaps by
a product over every split.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, perm, prod
from operator import le

from flagseries import kernels
from flagseries.engine import (
    _class_numerator,
    _component_paths,
    _compress,
    _compute_relative_dense,
    _gap_steps,
    _one_gap_numerators,
    _path_data,
    _type_steps,
    rational_form,
)
from flagseries.motives import LEFSCHETZ, LPoly
from flagseries.partitions import FlagSpec, enum_partitions
from flagseries.series import QSeries, RationalForm, ps_mul
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


def ps_inv(a: QSeries) -> QSeries:
    """Multiplicative inverse up to truncation; constant term must be +-1.

    ``B_0`` inverts the row at the zero leading key (``kernels.inv_trunc``),
    so ``E = 1 - B_0 A`` has no row there and E^m vanishes past m = M, the
    sum of the leading truncations.  The inverse is then
    ``(1 + E + ... + E^M) B_0``, summed by Horner's rule on :func:`ps_mul`.
    A one-variable series is the single row keyed ``()``, so M = 0 and its
    inverse is ``B_0``.
    """
    c0 = a.constant_term()
    if c0 not in (1, -1):
        raise ValueError("constant term must be a unit (+1 or -1)")
    variables, trunc = a.variables, a.truncation
    zero = (0,) * (len(variables) - 1)
    row = kernels.inv_trunc(a.rows[zero], trunc[-1])
    b0 = QSeries.from_rows(variables, trunc, {zero: row})
    one = QSeries.one(variables, trunc)
    e = one - ps_mul(b0, a)
    out = one
    for _ in range(sum(trunc[:-1])):
        out = one + ps_mul(e, out)
    return ps_mul(out, b0)


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


def rotate(shape: SkewShape) -> SkewShape:
    """Turn every component through 180 degrees."""
    return SkewShape(
        tuple(
            connected_from_cells({(-x, -y) for x, y in comp.cells()})
            for comp in shape.components
        )
    )


def component_paths_per_shape(costs) -> list:
    """``engine._component_paths`` shape by shape: every connected shape of
    each size counts its own fillings, with no reuse across symmetric
    images."""
    by_size = {}
    for cost in costs:
        by_size.setdefault(sum(cost), []).append(cost)
    paths = []
    for size, sized in by_size.items():
        for comp in enum_connected_skew(size):
            counts = filling_counts(SkewShape((comp,)), sized)
            data = _path_data(comp)
            paths.extend((cost, *data, n) for cost, n in counts.items() if n)
    return paths


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


def contains(inner, outer) -> bool:
    """True iff inner_i <= outer_i rowwise (missing rows count as 0)."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


def filtered_nested_flags(spec) -> int:
    """``count_nested_flags`` by filtering: each step keeps the partitions of
    the next size down that ``contains`` puts inside the outer one."""
    spec = FlagSpec(spec)
    if not spec:
        return 1
    return sum(_filtered_chains_below(mu, spec[:-1]) for mu in enum_partitions(spec[-1]))


@lru_cache(maxsize=None)
def _filtered_chains_below(outer, sizes) -> int:
    if not sizes:
        return 1
    return sum(
        _filtered_chains_below(nu, sizes[:-1])
        for nu in enum_partitions(sizes[-1])
        if contains(nu, outer)
    )


def gottsche_by_lpoly(order: int):
    """The Göttsche coefficients by the recurrence in Z[L] itself: for each
    j, every coefficient from t^j up gains L^(j-1) times the one j below."""
    coeffs = [LPoly((1,))] + [LPoly()] * order
    for j in range(1, order + 1):
        weight = LEFSCHETZ ** (j - 1)
        for n in range(j, order + 1):
            coeffs[n] = coeffs[n] + weight * coeffs[n - j]
    return tuple(coeffs)


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
    for shape, orbit in _transposition_orbits(K):
        weight = rp_count(shape, block_sizes) * orbit
        if weight:
            _grow_add(numerator, _class_numerator(shape), 0, weight)
    return RationalForm(numerator, {j: 1 for j in range(1, K + 1)})


@lru_cache(maxsize=None)
def _transposition_orbits(size: int) -> tuple:
    """(shape, orbit size) for each orbit of the shape classes of ``size``
    boxes under transposition, through its smaller key."""
    out = []
    for shape in enum_skew_classes(size):
        key, flipped = shape.key(), transpose(shape).key()
        if flipped >= key:
            out.append((shape, 1 if flipped == key else 2))
    return tuple(out)


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


def nested_pair_counts_by_lists(max1: int, max2: int) -> dict:
    """``partitions.nested_pair_counts`` by a walk over every outer
    partition mu with |mu| <= max2, its rows added in decreasing order.
    ``suffix[p]`` lists the counts, by size <= max1, of the nu inside the
    rows so far whose last row is >= p (nu padded with zero rows), so
    appending a row r gives the nu whose new row is p <= r as ``suffix[p]``
    shifted by p."""
    width = max1 + 1
    rows = [[0] * width for _ in range(max2 + 1)]

    def walk(size, top, suffix):
        rows[size] = [x + y for x, y in zip(rows[size], suffix[0])]
        for r in range(min(top, max2 - size), 0, -1):
            acc = [0] * width
            new = [None] * (r + 1)
            for p in range(r, -1, -1):
                acc[p:] = [x + y for x, y in zip(acc[p:], suffix[p])]
                new[p] = acc[:]
            walk(size + r, r, new)

    walk(0, max2, [[1] + [0] * max1] * (max2 + 1))
    return {
        (a, b): rows[b][a]
        for a in range(width)
        for b in range(a, max2 + 1)
    }


def ps_mul_by_rows(a: QSeries, b: QSeries) -> QSeries:
    """``series.ps_mul`` by the dense kernels: one truncated row convolution
    per pair of leading keys whose sum stays inside the truncation."""
    trunc = a._check_compatible(b)
    n = trunc[-1]
    out = {}
    for ka, ra in a.rows.items():
        for kb, rb in b.rows.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            if any(x > t for x, t in zip(key, trunc[:-1])):
                continue
            prod_row = kernels.mul_trunc(ra, rb, n)
            acc = out.setdefault(key, [0] * (n + 1))
            kernels.addmul_shifted(acc, prod_row, 0, 1, n)
    return QSeries.from_rows(a.variables, trunc, out)


def rank_form_by_lists(r: int, D: int) -> RationalForm:
    """``engine._rank_form`` in list arithmetic: each term's product of
    one-gap numerators and its factors (1 - q^j) as dense lists."""
    denominator = {j: min(r, D // j) for j in range(1, D + 1)}
    nums = _one_gap_numerators(D)
    numerator = []
    for lam in enum_partitions(D):
        repeats = prod(map(factorial, lam.multiplicities().values()))
        weight = perm(r, len(lam)) // repeats
        if not weight:
            continue
        term = [1]
        for part in lam:
            term = _mul(term, nums[part])
        for j, e in denominator.items():
            for _ in range(e - sum(1 for part in lam if part >= j)):
                term = _times_one_minus(term, j)
        _grow_add(numerator, term, 0, weight)
    return RationalForm(numerator, denominator)


@lru_cache(maxsize=None)
def _q_binomial(n: int, k: int) -> tuple:
    """Gaussian binomial [n choose k]_q for 0 <= k <= n, dense."""
    if k == 0 or k == n:
        return (1,)
    out = list(_q_binomial(n - 1, k - 1))
    _grow_add(out, _q_binomial(n - 1, k), k)
    return tuple(out)


def _placement_terms(L: int, V: int, B: int) -> dict:
    """q^B prod_{p=1}^{L-1} (1 - x q^p) as {V + u: coefficient of x^u}:
    sum_u (-1)^u q^(B + u(u+1)/2) [L-1 choose u]_q x^u by the q-binomial
    theorem."""
    return {
        V + u: [0] * (B + u * (u + 1) // 2)
        + [(-1) ** u * c for c in _q_binomial(L - 1, u)]
        for u in range(L)
    }


def one_gap_groups_by_lists(D: int) -> dict:
    """The groups of ``engine._one_gap_paths`` as list polynomials, keyed
    (cost, L): the same row DP over (last row length, s, L, V), each
    sum_c q^(B_c) a dense list, then multiplied out against the placement
    terms."""
    layers = [{} for _ in range(D + 1)]
    for l in range(1, D + 1):
        layers[l][l, l, 1] = [1]
    groups = {}
    for s in range(1, D + 1):
        by_path = {}
        for (l0, L, V), poly in layers[s].items():
            _grow_add(by_path.setdefault((L, V), []), poly, 0)
            for l1 in range(1, D - s + 1):
                for delta in range(max(0, l1 - l0), l1):
                    target = layers[s + l1].setdefault((l1, L + delta, V + 1), [])
                    _grow_add(target, poly, delta * V)
        for (L, V), poly in by_path.items():
            terms = groups.setdefault(((s,), L), {})
            for t, weight in _placement_terms(L, V, 0).items():
                _grow_add(terms.setdefault(t, []), _mul(poly, weight), 0)
    return groups


def path_groups_by_lists(paths) -> dict:
    """``engine._path_groups`` as list polynomials keyed (cost, L), for
    components (cost, L, V, offset, fillings) with integer fillings."""
    groups = {}
    for cost, L, V, offset, fillings in paths:
        terms = groups.setdefault((cost, L), {})
        for t, poly in _placement_terms(L, V, offset).items():
            _grow_add(terms.setdefault(t, []), poly, 0, fillings)
    return groups


def _horner(parts, stop: int) -> list:
    """sum_{T<stop} parts[T] * prod_{T<i<stop} (1 - q^i), by Horner's rule."""
    acc = []
    for T in range(stop):
        if acc:
            acc = _times_one_minus(acc, T)
        if T in parts:
            _grow_add(acc, parts[T], 0)
    while acc and not acc[-1]:
        acc.pop()
    return acc


def _budget_steps(budget, steps) -> dict:
    """b -> {(cost, b'): count} by the budget rule ``steps``, for
    ``budget`` and every budget it steps down to."""
    split = {}
    todo = [budget]
    while todo:
        b = todo.pop()
        if b not in split:
            split[b] = steps(b)
            todo.extend(sub for _, sub in split[b])
    return split


def numerator_bound_by_run(paths, budget, steps, tops) -> int:
    """The slot bound of ``engine._numerator_rows`` as its whole recurrence
    run on l1 norms, the program the engine sums in closed form: each
    factor (1 - q^i) is 2 and each shift q^(L*T') is 1, and the bound is
    the largest value over b -> top in ``tops``.  A component
    (cost, L, V, offset, weight) of ``paths(0)`` adds
    weight * C(L - 1, u), the norm of its c_u, to the norm at t = V + u.
    ``paths`` and ``steps`` are the engine's arguments."""
    norms = {}  # cost -> t -> sum_L ||A_{cost,L,t}||
    for cost, L, V, _, weight in paths(0):
        by_t = norms.setdefault(cost, {})
        for u in range(L):
            by_t[V + u] = by_t.get(V + u, 0) + weight * comb(L - 1, u)

    def horner(parts, stop):
        acc = 0
        for T in range(stop):
            acc = 2 * acc + parts.get(T, 0)
        return acc

    split = _budget_steps(budget, steps)
    rows = {}
    for b in sorted(split, key=sum):
        if not any(b):
            rows[b] = {0: 1}
            continue
        X = {}  # T -> T' -> X_{b,T,T'}
        for (cost, sub), count in split[b].items():
            for T0, src in rows[sub].items():
                for t, weight in norms[cost].items():
                    part = X.setdefault(T0 + t, {})
                    part[T0] = part.get(T0, 0) + count * src * weight
        rows[b] = {T: horner(parts, T) for T, parts in X.items()}
    return max(horner(rows[b], top + 1) for b, top in tops.items())


def gap_steps_by_product(b) -> dict:
    """``engine._gap_steps`` over every vector c <= b at once, each
    compressed twice."""
    out = {}
    for c in itertools.product(*(range(x + 1) for x in b)):
        if any(c):
            key = _compress(c), _compress([x - y for x, y in zip(b, c)])
            out[key] = out.get(key, 0) + 1
    return out


def numerator_rows_by_lists(groups, budget, steps) -> dict:
    """The rows N_{b,T} of ``engine._numerator_rows``'s recurrence in list
    arithmetic, for ``budget`` and every budget it steps down to; the
    numerator of b over prod_{i<=top} (1 - q^i) is
    ``_horner(rows[b], top + 1)``.  ``groups`` maps (cost, L) to {t: A},
    with A a dense list."""
    by_cost = {}  # cost -> t -> [(L, A)]
    for (cost, L), terms in groups.items():
        for t, poly in terms.items():
            by_cost.setdefault(cost, {}).setdefault(t, []).append((L, poly))
    shifted = {}  # (cost, T', t) -> sum_L q^(L*T') A_{cost,L,t}

    def weight(cost, T0, t):
        if (cost, T0, t) not in shifted:
            acc = shifted[cost, T0, t] = []
            for L, poly in by_cost[cost][t]:
                _grow_add(acc, poly, L * T0)
        return shifted[cost, T0, t]

    split = _budget_steps(budget, steps)
    rows = {}
    for b in sorted(split, key=sum):  # a step lowers the budget's total
        if not any(b):
            rows[b] = {0: [1]}
            continue
        X = {}  # T -> T' -> X_{b,T,T'}
        for (cost, sub), count in split[b].items():
            for T0, src in rows[sub].items():
                for t in by_cost[cost]:
                    part = X.setdefault(T0 + t, {}).setdefault(T0, [])
                    _grow_add(part, _mul(src, weight(cost, T0, t)), 0, count)
        rows[b] = {T: _horner(parts, T) for T, parts in X.items()}
    return rows


def one_gap_numerators_by_lists(D: int) -> tuple:
    """``engine._one_gap_numerators(D)`` by the list recurrence."""
    rows = numerator_rows_by_lists(one_gap_groups_by_lists(D), (D,), _gap_steps)
    return ((1,),) + tuple(tuple(_horner(rows[d,], d + 1)) for d in range(1, D + 1))


def gap_numerator_by_lists(k) -> list:
    """The numerator of ``rational_form(k)`` over prod_{j<=K} (1 - q^j) by
    the list recurrence over the compressed budget of ``k``, from the
    same components as ``engine._component_paths``."""
    budget = _compress(k)
    paths = _component_paths({cost for cost, _ in _gap_steps(budget)})
    rows = numerator_rows_by_lists(path_groups_by_lists(paths), budget, _gap_steps)
    return _horner(rows[budget], sum(budget) + 1)


def class_numerator_by_lists(shape: SkewShape) -> list:
    """``engine._class_numerator`` by the list recurrence."""
    types = [
        (comp, sum(1 for _ in group))
        for comp, group in itertools.groupby(shape.components)
    ]
    paths = [(i, *_path_data(comp), 1) for i, (comp, _) in enumerate(types)]
    budget = tuple(m for _, m in types)
    rows = numerator_rows_by_lists(path_groups_by_lists(paths), budget, _type_steps)
    return _horner(rows[budget], shape.size + 1)
