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
A single shape spends one unit per component of each type.  The one-gap
sum FZ_D / Z spends s boxes of the budget (D,) per component of size s,
with groups from a row DP instead of enumerated shapes.  The multi-gap sum
FZ_k / Z runs over connected components, not shape classes: a chain of
order ideals of a disjoint union is one chain per component whose level
sizes add (J(P + Q) = J(P) x J(Q), Stanley EC1 ch. 3).  So a component
spends a vector c <= k of the gap budget, weighted by its number of
fillings with content c.  A zero level adds no box, so gap budgets are
kept with their zero entries dropped.

Summing the geometric series in j turns the DP into one exact integer
recurrence (:func:`_numerator_rows`) for the numerators over
prod_{i<=K} (1 - q^i) of the one-gap, multi-gap and single-shape ratios:
no truncation, no guard and no degree bound.  A connected shape also has
a closed q-beta form.  :func:`rational_form` is the one constructor of a
gap-vector form, any rank, and :func:`rational_form_lambda` that of a
single shape; a series is its form expanded with Z^r to the order asked
for.

The truncated DP :func:`_relative_dense` (with :class:`PlacementWeight`,
:func:`_shape_groups` and :func:`_compute_relative_dense`) runs on no
production path.  The tests referee the exact forms with it (one shape
through ``truncated_ratio`` in ``tests/referees.py``), beside the
per-class sums and the insertion census there.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from . import kernels
from .series import QSeries, RationalForm


def partition_series(truncation: int) -> QSeries:
    """The partition generating function Z as a q-series."""
    return RationalForm((1,), {}).expand(truncation, z_power=1)


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


def _shape_groups(shape: SkewShape):
    """Groups (merged as by :func:`_add_weight`) and budget of one shape
    class: the budget counts the components of each type, and placing one
    component spends one unit of its type."""
    types = [
        (comp, sum(1 for _ in group))
        for comp, group in itertools.groupby(shape.components)
    ]
    groups = {}
    for i, (comp, _) in enumerate(types):
        cost = tuple(int(i == k) for k in range(len(types)))
        _add_weight(groups, cost, comp)
    return groups, tuple(mult for _, mult in types)


def _compute_relative_dense(shape: SkewShape, n: int) -> list:
    """(flag series / partition series) for one shape class, dense to n."""
    groups, budget = _shape_groups(shape)
    return _relative_dense(groups, budget, n)[budget]


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


def _placement_terms(L: int, V: int, B: int) -> dict:
    """q^B prod_{p<L} (1 - x q^p) as {V + u: coefficient of x^u}, exact:
    sum_u (-1)^u q^(B + u(u+1)/2) [L-1 choose u]_q x^u by the q-binomial
    theorem.  At x = q^j this is the weight sum_t A_t(q) q^(j*t) of a
    component with path data (L, V, B) placed at offset j."""
    return {
        V + u: [0] * (B + u * (u + 1) // 2)
        + [(-1) ** u * c for c in _q_binomial(L - 1, u)]
        for u in range(L)
    }


def _one_gap_groups(D: int) -> dict:
    """Merged placement weights of every connected shape of size <= D.

    Maps (s, L) to {t: A}, where the components of size s and west length
    L have summed weight sum_t A_t(q) * q^(j*t) at offset j: the group
    terms of the one-gap placement DP, without enumerating shapes.  A row
    DP over (last row length, s, L, V) yields sum_c q^(B_c) for each
    (s, L, V): a row of length l1 under a row of length l0 starts
    delta >= max(0, l1 - l0), delta < l1, columns further west, adding l1
    boxes, one row, delta to L and delta * (rows above) to B.  The factor
    prod_{p<L} (1 - x q^p) then expands by :func:`_placement_terms`.
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
            for t, weight in _placement_terms(L, V, 0).items():
                _grow_add(terms.setdefault(t, []), _mul(poly, weight), 0)
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


def _numerator_rows(groups, budget, steps) -> dict:
    """N_{b,T} with U(b, 0) = sum_T N_{b,T} / prod_{i<=T} (1 - q^i), for
    ``budget`` and every budget b it steps down to.

    ``groups`` maps (cost, L) to {t: A}: the group placed at offset j has
    weight sum_t A_t(q) * q^(j*t), with every t >= 1.  The caller's budget
    rule ``steps(b)`` maps (cost, b') to the number of ways that placing one
    component of that cost leaves the budget b' of b.  Writing
    U(b, j) = sum_T q^(j*T) R_{b,T} in the placement DP and summing the
    geometric series in j gives
    R_{b,T} = (1 - q^T)^(-1) sum A_{cost,L,t} * q^(L*T') * R_{b',T'} over
    steps and group terms with t + T' = T, so T' < T.  With
    N_{b,T} = R_{b,T} prod_{i<=T} (1 - q^i), N_{0,0} = 1 and

        N_{b,T} = sum_{T'<T} X_{b,T,T'} prod_{T'<i<T} (1 - q^i),
        X_{b,T,T'} = sum_{(cost,b'),t} count [sum_L q^(L*T') A_{cost,L,t}] N_{b',T'}:

    integer polynomial arithmetic with no division, no truncation and no
    degree bound.  The ratio itself is then
    _horner(N_b, top + 1) / prod_{i<=top} (1 - q^i) for any top >= max T.
    """
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

    split = {}  # b -> {(cost, b'): count}, for every budget reached
    todo = [budget]
    while todo:
        b = todo.pop()
        if b not in split:
            split[b] = steps(b)
            todo.extend(sub for _, sub in split[b])
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


def _type_steps(b) -> dict:
    """Budget rule of a single shape: b counts the components of each type,
    and placing one of type i spends one unit of b_i.  Types never merge."""
    return {(i, b[:i] + (m - 1,) + b[i + 1 :]): 1 for i, m in enumerate(b) if m}


def _compress(b) -> tuple:
    """A gap budget with its zero entries dropped: a zero level adds no box."""
    return tuple(x for x in b if x)


def _gap_steps(b) -> dict:
    """Budget rule of a compressed gap budget: a component spends any vector
    0 != c <= b, and the c are counted by (compress(c), compress(b - c))."""
    out = {}
    for c in itertools.product(*(range(x + 1) for x in b)):
        if any(c):
            key = _compress(c), _compress([x - y for x, y in zip(b, c)])
            out[key] = out.get(key, 0) + 1
    return out


def _path_terms(component: ConnectedSkew) -> tuple:
    """West length L and the placement terms {t: A} of one component."""
    path = component.nw_path()
    L = path.west_total
    return L, _placement_terms(L, path.south_total, path.offset_weight)


def _class_numerator(shape: SkewShape) -> list:
    """Numerator of one shape's ratio over prod_{i<=size} (1 - q^i), exact:
    a component of size s has t <= V + L - 1 <= s, so every T <= size.
    The budget counts the components of each type."""
    types = [
        (comp, sum(1 for _ in group))
        for comp, group in itertools.groupby(shape.components)
    ]
    groups = {}
    for i, (comp, _) in enumerate(types):
        L, terms = _path_terms(comp)
        groups[i, L] = terms
    budget = tuple(m for _, m in types)
    rows = _numerator_rows(groups, budget, _type_steps)
    return _horner(rows[budget], shape.size + 1)


#: The exact numerators (P_0, ..., P_D) of the last run; a run for D fills
#: every d <= D.  A caller that spans gaps asks for its largest gap first,
#: so one run serves the rest.  The table is replaced whole, in one
#: assignment, so callers need no lock.
_numerators: tuple = ()


def _one_gap_numerators(D: int) -> tuple:
    """P_d with FZ_d / Z = P_d / prod_{i<=d} (1 - q^i), for every d <= D.
    A component of size s costs (s,) and has t <= s, so T <= d."""
    global _numerators
    nums = _numerators
    if D >= len(nums):
        groups = {((s,), L): terms for (s, L), terms in _one_gap_groups(D).items()}
        rows = _numerator_rows(groups, (D,), _gap_steps)
        nums = _numerators = ((1,),) + tuple(
            tuple(_horner(rows[d,], d + 1)) for d in range(1, D + 1)
        )
    return nums[: D + 1]


def rational_form_lambda(shape: SkewShape) -> RationalForm:
    """Closed rational form of the single-shape ratio, exact.

    A connected shape sums its placement weights by the q-beta sum
    sum_j z^j (q^(j+1); q)_n = (q; q)_n / (z; q)_(n+1) at z = q^V, n = L - 1:

        q^B prod_{i<min(L,V)} (1 - q^i) / prod_{max(L,V)<=i<L+V} (1 - q^i).

    A disconnected shape takes its class numerator over
    prod_{j=1}^{size} (1 - q^j).
    """
    if not shape.is_connected:
        denominator = dict.fromkeys(range(1, shape.size + 1), 1)
        return RationalForm(_class_numerator(shape), denominator)
    path = shape.components[0].nw_path()
    L, V = path.west_total, path.south_total
    numerator = [0] * path.offset_weight + [1]
    for i in range(1, min(L, V)):
        numerator = _times_one_minus(numerator, i)
    return RationalForm(numerator, dict.fromkeys(range(max(L, V), L + V), 1))


def _component_groups(costs) -> dict:
    """Groups (cost, L) -> {t: A} of a gap budget: for each cost, every
    connected shape of that size with its placement terms times its number
    of fillings with content ``cost``; shapes with none are left out.
    Each shape counts its fillings for all costs of its size at once."""
    from .shapes import SkewShape, enum_connected_skew, filling_counts

    by_size = {}
    for cost in costs:
        by_size.setdefault(sum(cost), []).append(cost)
    groups = {}
    for size, sized in by_size.items():
        for comp in enum_connected_skew(size):
            counts = filling_counts(SkewShape((comp,)), sized)
            found = [(cost, n) for cost, n in counts.items() if n]
            if not found:
                continue
            L, terms = _path_terms(comp)
            for cost, fillings in found:
                merged = groups.setdefault((cost, L), {})
                for t, poly in terms.items():
                    _grow_add(merged.setdefault(t, []), poly, 0, fillings)
    return groups


def rational_form(k, r: int = 1) -> RationalForm:
    """The exact form of FQ_{r,k} / Z^r: the rank-r series of nested chains
    with nonnegative gap vector ``k``, over the r-th power of Z.

    Zero gaps add no box, so they are dropped, and a zero vector gives the
    form 1.  At r = 1 the denominator is prod_{j=1}^{K} (1 - q^j), K = sum(k):
    one nonzero gap takes the one-gap numerators, and several run the
    placement recurrence once over the compressed gap budget, where a
    connected component spends a vector c <= k and weighs its number of
    fillings with content c (a chain of order ideals of a disjoint union is
    one chain per component, and the level sizes add; placements are
    ordered by offset, so no symmetry factor enters).  At r > 1 one nonzero
    gap D is the rank-r sum ``quot.rational_form_rD(r, D)``, and several
    raise ``ValueError``.  ``rational_form(k, r).expand(n, z_power=r)`` is
    the series, and ``z_power=0`` the ratio.
    """
    k = tuple(int(x) for x in k)
    if any(x < 0 for x in k):
        raise ValueError("gap sizes must be nonnegative")
    if r < 1:
        raise ValueError("rank must be positive")
    budget = _compress(k)
    if not budget:
        return RationalForm((1,), {})
    K = sum(budget)
    if r > 1:
        if len(budget) > 1:
            raise ValueError("a rank above 1 takes a single nonzero gap")
        from .quot import rational_form_rD  # fz loads no quot

        return rational_form_rD(r, K)
    denominator = dict.fromkeys(range(1, K + 1), 1)
    if len(budget) == 1:
        return RationalForm(_one_gap_numerators(K)[K], denominator)
    groups = _component_groups({cost for cost, _ in _gap_steps(budget)})
    rows = _numerator_rows(groups, budget, _gap_steps)
    return RationalForm(_horner(rows[budget], K + 1), denominator)
