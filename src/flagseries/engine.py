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
no truncation, no guard and no degree bound.  It runs on integers:
evaluation at q = 2^B is a ring map, so each polynomial is one Python int,
a product is ``*``, a shift ``<<`` and a factor (1 - q^i) is
``v - (v << B*i)`` (Kronecker substitution over the whole program;
D. Harvey, J. Symbolic Comput. 44, 2009), and each numerator is decoded
once by signed base-2^B digits.  B comes from a proven bound: the same
program at q = 1 with every minus sign read as plus bounds each l1 norm,
since ||a + b|| <= ||a|| + ||b||, ||ab|| <= ||a|| ||b|| and
||(1 - q^i) a|| <= 2 ||a||.  A connected shape also has
a closed q-beta form.  :func:`rational_form` is the one constructor of a
gap-vector form, any rank, and :func:`rational_form_lambda` that of a
single shape; a series is its form expanded with Z^r to the order asked
for.  At rank r > 1 it sums products of one-gap numerators
(:func:`_rank_form`).

The truncated DP :func:`_relative_dense` (with :class:`PlacementWeight`,
:func:`_shape_groups` and :func:`_compute_relative_dense`) runs on no
production path.  The tests referee the exact forms with it (one shape
through ``truncated_ratio`` in ``tests/referees.py``), beside the
per-class sums and the insertion census there.
"""

from __future__ import annotations

import itertools
from functools import partial
from math import factorial, perm, prod
from operator import index

from . import kernels
from .series import RationalForm


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


def _component_types(shape: SkewShape) -> list:
    """The distinct components of a shape class with their multiplicities,
    in the shape's sorted component order."""
    return [
        (comp, sum(1 for _ in group))
        for comp, group in itertools.groupby(shape.components)
    ]


def _shape_groups(shape: SkewShape):
    """Groups (merged as by :func:`_add_weight`) and budget of one shape
    class: the budget counts the components of each type, and placing one
    component spends one unit of its type."""
    types = _component_types(shape)
    groups = {}
    for i, (comp, _) in enumerate(types):
        cost = tuple(int(i == k) for k in range(len(types)))
        _add_weight(groups, cost, comp)
    return groups, tuple(mult for _, mult in types)


def _compute_relative_dense(shape: SkewShape, n: int) -> list:
    """(flag series / partition series) for one shape class, dense to n."""
    groups, budget = _shape_groups(shape)
    return _relative_dense(groups, budget, n)[budget]


def _placement_values(L: int, bits: int, sign: int) -> list:
    """The coefficients c_u of x^u in prod_{p=1}^{L-1} (1 + sign * x q^p) at
    q = 2^bits.  At sign -1 they are (-1)^u q^(u(u+1)/2) [L-1 choose u]_q
    by the q-binomial theorem; at (bits, sign) = (0, +1) they are the
    binomials C(L-1, u), the l1 norms of those coefficients."""
    coeffs = [1]
    for p in range(1, L):
        coeffs = [
            a + sign * (b << (bits * p)) for a, b in zip(coeffs + [0], [0] + coeffs)
        ]
    return coeffs


def _path_groups(paths, bits: int, sign: int) -> dict:
    """Groups (cost, L) -> {t: A_t} of the placement recurrence at q = 2^bits
    from components listed as (cost, L, V, offset, weight).  A component
    with path data (L, V, offset) placed at offset j weighs
    q^(j*V + offset) prod_{p=1}^{L-1} (1 - q^(j+p)), which is
    sum_u q^offset c_u q^(j*(V+u)) with c_u from :func:`_placement_values`;
    so it adds weight * q^offset * c_u to A_(V+u).  A weight is the value of
    a polynomial with nonnegative coefficients (a count, or a sum of
    q-powers), so at (0, +1) every A_t bounds the l1 norm of its
    polynomial."""
    merged = {}  # (cost, L, V) -> sum of weight * q^offset
    for cost, L, V, offset, weight in paths:
        key = cost, L, V
        merged[key] = merged.get(key, 0) + (weight << (bits * offset))
    placements = {}
    groups = {}
    for (cost, L, V), weight in merged.items():
        if L not in placements:
            placements[L] = _placement_values(L, bits, sign)
        terms = groups.setdefault((cost, L), {})
        for u, c in enumerate(placements[L], V):
            terms[u] = terms.get(u, 0) + weight * c
    return groups


def _one_gap_groups(D: int, bits: int, sign: int) -> dict:
    """Groups of the one-gap recurrence at q = 2^bits: every connected shape
    of size s <= D, costing (s,), without enumerating shapes.  A row DP over
    (last row length, s, L, V) yields sum_c q^(B_c) for each (s, L, V): a
    row of length l1 under a row of length l0 starts delta >= max(0, l1 - l0),
    delta < l1, columns further west, adding l1 boxes, one row, delta to L
    and delta * (rows above) to B.  Its values have nonnegative
    coefficients, so at bits 0 they are the counts, their l1 norms."""
    layers = [{} for _ in range(D + 1)]  # s -> (last row length, L, V) -> value
    for l in range(1, D + 1):
        layers[l][l, l, 1] = 1
    paths = []
    for s in range(1, D + 1):
        for (l0, L, V), value in layers[s].items():
            paths.append(((s,), L, V, 0, value))
            step = bits * V
            for l1 in range(1, D - s + 1):
                layer = layers[s + l1]
                low = max(0, l1 - l0)
                shifted = value << (step * low)
                for west in range(L + low, L + l1):
                    key = l1, west, V + 1
                    layer[key] = layer.get(key, 0) + shifted
                    shifted <<= step
    return _path_groups(paths, bits, sign)


def _horner(parts, stop: int, bits: int, sign: int) -> int:
    """sum_{T<stop} parts[T] * prod_{T<i<stop} (1 + sign * q^i) at
    q = 2^bits, by Horner's rule."""
    acc = 0
    for T in range(stop):
        acc += sign * (acc << (bits * T)) + parts.get(T, 0)
    return acc


def _numerator_rows(groups, budget, steps, tops) -> dict:
    """The exact numerators N_b, as coefficient lists, with
    U(b, 0) = N_b / prod_{i<=top} (1 - q^i) for each b -> top in ``tops``:
    ``budget`` and budgets it steps down to, each top at least the largest T
    below.

    ``groups(bits, sign)`` gives the groups (cost, L) -> {t: A_t} at
    q = 2^bits, every minus sign replaced by ``sign``: the group placed at
    offset j has weight sum_t A_t(q) * q^(j*t), with every t >= 1.  The
    caller's budget rule ``steps(b)`` maps (cost, b') to the number of ways
    that placing one component of that cost leaves the budget b' of b.  Writing
    U(b, j) = sum_T q^(j*T) R_{b,T} in the placement DP and summing the
    geometric series in j gives
    R_{b,T} = (1 - q^T)^(-1) sum A_{cost,L,t} * q^(L*T') * R_{b',T'} over
    steps and group terms with t + T' = T, so T' < T.  With
    N_{b,T} = R_{b,T} prod_{i<=T} (1 - q^i), N_{0,0} = 1 and

        N_{b,T} = sum_{T'<T} X_{b,T,T'} prod_{T'<i<T} (1 - q^i),
        X_{b,T,T'} = sum_{(cost,b'),t} count [sum_L q^(L*T') A_{cost,L,t}] N_{b',T'},

    and N_b = sum_{T<=top} N_{b,T} prod_{T<i<=top} (1 - q^i).  The program
    runs twice: at (bits, sign) = (0, +1), where every value bounds the l1
    norm of its polynomial (the group terms are their norms or bound them),
    and at (bits, -1) with bits = ``kernels._signed_bits`` of the largest
    bound, so every coefficient of every N_b is one signed digit.
    """
    split = {}  # b -> {(cost, b'): count}, for every budget reached
    todo = [budget]
    while todo:
        b = todo.pop()
        if b not in split:
            split[b] = steps(b)
            todo.extend(sub for _, sub in split[b])
    order = sorted(split, key=sum)  # a step lowers the budget's total

    def run(bits, sign):
        by_cost = {}  # cost -> t -> [(L, A)]
        for (cost, L), terms in groups(bits, sign).items():
            for t, value in terms.items():
                by_cost.setdefault(cost, {}).setdefault(t, []).append((L, value))
        shifted = {}  # (cost, T', t) -> sum_L q^(L*T') A_{cost,L,t}
        rows = {}
        for b in order:
            if not any(b):
                rows[b] = {0: 1}
                continue
            X = {}  # T -> T' -> X_{b,T,T'}
            for (cost, sub), count in split[b].items():
                for T0, src in rows[sub].items():
                    for t, weights in by_cost[cost].items():
                        key = cost, T0, t
                        if key not in shifted:
                            shifted[key] = sum(A << (bits * L * T0) for L, A in weights)
                        part = X.setdefault(T0 + t, {})
                        part[T0] = part.get(T0, 0) + count * src * shifted[key]
            rows[b] = {T: _horner(parts, T, bits, sign) for T, parts in X.items()}
        return {b: _horner(rows[b], top + 1, bits, sign) for b, top in tops.items()}

    bits = kernels._signed_bits(max(run(0, 1).values()))
    return {b: kernels._decode(value, bits) for b, value in run(bits, -1).items()}


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


def _path_data(component: ConnectedSkew) -> tuple:
    """West length L, south length V and offset weight of one component."""
    path = component.nw_path()
    return path.west_total, path.south_total, path.offset_weight


def _class_numerator(shape: SkewShape) -> list:
    """Numerator of one shape's ratio over prod_{i<=size} (1 - q^i), exact:
    a component of size s has t <= V + L - 1 <= s, so every T <= size.
    The budget counts the components of each type."""
    types = _component_types(shape)
    paths = [(i, *_path_data(comp), 1) for i, (comp, _) in enumerate(types)]
    budget = tuple(m for _, m in types)
    groups = partial(_path_groups, paths)
    return _numerator_rows(groups, budget, _type_steps, {budget: shape.size})[budget]


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
        tops = {(d,): d for d in range(1, D + 1)}
        rows = _numerator_rows(partial(_one_gap_groups, D), (D,), _gap_steps, tops)
        nums = _numerators = ((1,),) + tuple(tuple(rows[b]) for b in tops)
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
    L, V, B = _path_data(shape.components[0])
    numerator = [0] * B + [1]
    for i in range(1, min(L, V)):
        numerator = [a - b for a, b in zip(numerator + [0] * i, [0] * i + numerator)]
    return RationalForm(numerator, dict.fromkeys(range(max(L, V), L + V), 1))


def _component_paths(costs) -> list:
    """Components (cost, L, V, offset, fillings) of a gap budget, as
    :func:`_path_groups` takes them: for each cost, every connected shape of
    that size with its number of fillings with content ``cost``; shapes
    with none are left out.  Each shape counts its fillings for all costs
    of its size at once."""
    from .shapes import SkewShape, enum_connected_skew, filling_counts

    by_size = {}
    for cost in costs:
        by_size.setdefault(sum(cost), []).append(cost)
    paths = []
    for size, sized in by_size.items():
        for comp in enum_connected_skew(size):
            counts = filling_counts(SkewShape((comp,)), sized)
            found = [(cost, n) for cost, n in counts.items() if n]
            if found:
                data = _path_data(comp)
                paths.extend((cost, *data, fillings) for cost, fillings in found)
    return paths


def _rank_form(r: int, D: int) -> RationalForm:
    """Rational form of FQ_{r,D} / Z^r over the canonical denominator
    prod_{j=1}^{D} (1 - q^j)^{e_j}, e_j = min(r, D // j), exact: a gap
    multiset lam of D contributes inj(r, lam) * prod_i P_{lam_i} over
    prod_j (1 - q^j)^{#{i : lam_i >= j}}, with P_d the one-gap numerators
    and inj(r, lam) = perm(r, len(lam)) / prod_m mult_m!, 0 past r parts.
    At most e_j parts of lam are >= j, and over all j they count D boxes,
    so every term takes sum_j e_j - D factors (1 - q^j), each at most
    doubling its l1 norm.  The sum runs on ints at q = 2^bits (``kernels``).
    """
    from .partitions import enum_partitions  # fz loads no partitions

    denominator = {j: min(r, D // j) for j in range(1, D + 1)}
    nums = _one_gap_numerators(D)
    inj = {
        lam: perm(r, len(lam)) // prod(map(factorial, lam.multiplicities().values()))
        for lam in enum_partitions(D) if len(lam) <= r
    }
    bound = sum(w * prod(sum(map(abs, nums[p])) for p in lam) for lam, w in inj.items())
    bits = kernels._signed_bits(bound << (sum(denominator.values()) - D))
    lifted, value = [kernels._pack(p, bits) for p in nums], 0
    for lam, weight in inj.items():
        term = prod(lifted[part] for part in lam)
        for j, e in denominator.items():
            for _ in range(e - sum(1 for part in lam if part >= j)):
                term -= term << (bits * j)
        value += weight * term
    return RationalForm(kernels._decode(value, bits), denominator)


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
    gap D is the rank-r sum :func:`_rank_form`, and several raise
    ``ValueError``.  ``rational_form(k, r).expand(n, z_power=r)`` is the
    series, and ``z_power=0`` the ratio.  Gaps and rank must be integers.
    """
    k = tuple(map(index, k))
    r = index(r)
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
        return _rank_form(r, K)
    denominator = dict.fromkeys(range(1, K + 1), 1)
    if len(budget) == 1:
        return RationalForm(_one_gap_numerators(K)[K], denominator)
    paths = _component_paths({cost for cost, _ in _gap_steps(budget)})
    rows = _numerator_rows(partial(_path_groups, paths), budget, _gap_steps, {budget: K})
    return RationalForm(rows[budget], denominator)
