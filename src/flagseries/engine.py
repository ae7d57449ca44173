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
fillings with content c, counted once per symmetry orbit of connected
diagrams (``shapes.component_fillings``).  A zero level adds no box, so
gap budgets are kept with their zero entries dropped.

Summing the geometric series in j turns the DP into one exact integer
recurrence (:func:`_numerator_rows`) for the numerators over
prod_{i<=K} (1 - q^i) of the one-gap, multi-gap and single-shape ratios:
no truncation, no guard and no degree bound.  It runs on integers:
evaluation at q = 2^B is a ring map, so each polynomial is one Python int,
a product is ``*``, a shift ``<<`` and a factor (1 - q^i) is
``v - (v << B*i)`` (Kronecker substitution over the whole program;
D. Harvey, J. Symbolic Comput. 44, 2009), and each numerator is decoded
once by signed base-2^B digits.  B comes from a proven bound on each l1
norm, since ||a + b|| <= ||a|| + ||b||, ||ab|| <= ||a|| ||b|| and
||(1 - q^i) a|| <= 2 ||a||: a component of weight w and west length L
adds terms whose norms sum to w(1) 2^(L-1), so the bound is one sum per
budget over the components' counts, and the recurrence runs once.  A
connected shape also has a closed q-beta form.  :func:`rational_form` is
the one constructor of a gap-vector form, any rank, and
:func:`rational_form_lambda` that of a single shape; a series is its
form expanded with Z^r to the order asked for.  At rank r > 1 it sums
products of one-gap numerators (:func:`_rank_form`).

The engine keeps two things between calls.  ``_numerators`` holds
(P_0, ..., P_D) of its largest one-gap run, which fills every d <= D: a
caller that spans gaps asks for its largest gap first.  The table is
replaced whole, in one assignment (no lock), and no value it holds ever
changes.  So :func:`_rank_form`, a function of (r, D) alone, keeps every
form it builds (``lru_cache``); its callers share each kept form and never
write its ``denominator`` dict.

The truncated DP :func:`_relative_dense` (with :class:`PlacementWeight`,
:func:`_shape_groups` and :func:`_compute_relative_dense`) runs on no
production path.  The tests referee the exact forms with it (one shape
through ``truncated_ratio`` in ``tests/referees.py``), beside the
per-class sums and the insertion census there.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from math import comb, prod
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


def _placement_values(L: int, bits: int) -> list:
    """The coefficients c_u of x^u in prod_{p=1}^{L-1} (1 - x q^p) at
    q = 2^bits: (-1)^u q^(u(u+1)/2) [L-1 choose u]_q by the q-binomial
    theorem."""
    coeffs = [1]
    for p in range(1, L):
        coeffs = [a - (b << (bits * p)) for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _path_groups(paths, bits: int) -> dict:
    """Group terms cost -> t -> {L: A_t} of the placement recurrence at
    q = 2^bits from components listed as (cost, L, V, offset, weight).  A
    component with path data (L, V, offset) placed at offset j weighs
    q^(j*V + offset) prod_{p=1}^{L-1} (1 - q^(j+p)), which is
    sum_u q^offset c_u q^(j*(V+u)) with c_u from :func:`_placement_values`;
    so it adds weight * q^offset * c_u to A_(V+u) of its (cost, L)."""
    merged = {}  # (cost, L, V) -> sum of weight * q^offset
    for cost, L, V, offset, weight in paths:
        key = cost, L, V
        merged[key] = merged.get(key, 0) + (weight << (bits * offset))
    placements = {}
    groups = {}
    for (cost, L, V), weight in merged.items():
        if L not in placements:
            placements[L] = _placement_values(L, bits)
        by_t = groups.setdefault(cost, {})
        for u, c in enumerate(placements[L], V):
            terms = by_t.setdefault(u, {})
            terms[L] = terms.get(L, 0) + weight * c
    return groups


def _one_gap_paths(D: int, bits: int) -> list:
    """Components (cost, L, V, 0, weight) of the one-gap recurrence at
    q = 2^bits: every connected shape of size s <= D, costing (s,), without
    enumerating shapes.  A row DP over (last row length, s, L, V) yields
    the weight sum_c q^(B_c), one entry per key (:func:`_path_groups`
    merges them): a row of length l1 under a row of length l0 starts
    delta >= max(0, l1 - l0), delta < l1, columns further west, adding l1
    boxes, one row, delta to L and delta * (rows above) to B.  At bits 0
    the weights are the counts."""
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
    return paths


def _one_gap_norms(D: int) -> dict:
    """||A_(s,)|| for s <= D, the count-weighted sum of 2^(L-1) over the
    components of :func:`_one_gap_paths`, by its row DP keyed by
    (last row length, s) alone: a row l1 under a row l0 multiplies 2^(L-1)
    by sum_delta 2^delta = 2^l1 - 2^max(0, l1 - l0)."""
    layers = [[0] * (D + 1) for _ in range(D + 1)]  # s -> last row length -> sum
    for s in range(1, D + 1):
        layers[s][s] = 1 << (s - 1)
        for l0, value in enumerate(layers[s][: s + 1]):
            for l1 in range(1, D - s + 1):
                layers[s + l1][l1] += value * ((1 << l1) - (1 << max(0, l1 - l0)))
    return {(s,): sum(layers[s]) for s in range(1, D + 1)}


def _horner(parts, stop: int, bits: int) -> int:
    """sum_{T<stop} parts[T] * prod_{T<i<stop} (1 - q^i) at q = 2^bits, by
    Horner's rule."""
    acc = 0
    for T in range(stop):
        acc += parts.get(T, 0) - (acc << (bits * T))
    return acc


def _numerator_rows(paths, budget, steps, tops, norms) -> dict:
    """The exact numerators N_b, as coefficient lists, with
    U(b, 0) = N_b / prod_{i<=top} (1 - q^i) for each b -> top in ``tops``:
    ``budget`` and budgets it steps down to, each top at least the largest T
    below and at least |b|, the sum of b's entries.

    ``paths(bits)`` lists the components (cost, L, V, offset, weight) at
    q = 2^bits, each weight the value of a polynomial with nonnegative
    coefficients (a count, or a sum of q-powers); :func:`_path_groups`
    merges them into the group terms A_{cost,L,t}: the group placed at
    offset j has weight sum_t A_t(q) * q^(j*t), with every t >= 1.  The
    caller's budget rule ``steps(b)`` maps (cost, b') to the number of ways
    that placing one component of that cost leaves the budget b' of b,
    with |b'| < |b|.  Writing
    U(b, j) = sum_T q^(j*T) R_{b,T} in the placement DP and summing the
    geometric series in j gives
    R_{b,T} = (1 - q^T)^(-1) sum A_{cost,L,t} * q^(L*T') * R_{b',T'} over
    steps and group terms with t + T' = T, so T' < T.  With
    N_{b,T} = R_{b,T} prod_{i<=T} (1 - q^i), N_{0,0} = 1 and

        N_{b,T} = sum_{T'<T} X_{b,T,T'} prod_{T'<i<T} (1 - q^i),
        X_{b,T,T'} = sum_{(cost,b'),t} count [sum_L q^(L*T') A_{cost,L,t}] N_{b',T'},

    and N_b = sum_{T<=top} N_{b,T} prod_{T<i<=top} (1 - q^i).  The program
    runs once, at q = 2^bits with bits = ``kernels._signed_bits`` of a
    bound on every l1 norm, so every coefficient of every N_b is one signed
    digit.  A component's c_u have l1 norms C(L-1, u), so the norms of its
    terms sum to w 2^(L-1), w its weight at bits 0; ``norms`` maps each
    cost to ||A_cost||, the sum of these over its components
    (:func:`_counted_rows` sums them, :func:`_one_gap_norms` counts them
    without listing the components).  Since
    ||a + b|| <= ||a|| + ||b||, ||ab|| <= ||a|| ||b|| and
    ||(1 - q^i) a|| <= 2 ||a||, W_b = sum_T 2^(-T) ||N_{b,T}|| obeys
    W_0 = 1 and W_b <= 1/2 sum_{(cost,b')} count ||A_cost|| W_b', and
    ||N_b|| <= 2^top W_b, as every T <= top.  In integers,
    V_b = sum count ||A_cost|| V_b' << (|b| - |b'| - 1) bounds 2^|b| W_b,
    and the bound is V_b << (top - |b|).
    """
    split = {}  # b -> {(cost, b'): count}, for every budget reached
    todo = [budget]
    while todo:
        b = todo.pop()
        if b not in split:
            split[b] = steps(b)
            todo.extend(sub for _, sub in split[b])
    # a step lowers the budget's total, so the empty budget comes first
    empty, *order = sorted(split, key=sum)
    V = {empty: 1}  # b -> V_b
    for b in order:
        V[b] = sum(
            count * norms[cost] * V[sub] << (sum(b) - sum(sub) - 1)
            for (cost, sub), count in split[b].items()
        )
    bits = kernels._signed_bits(max(V[b] << (top - sum(b)) for b, top in tops.items()))

    groups = _path_groups(paths(bits), bits)  # cost -> t -> {L: A_{cost,L,t}}
    shifted = {}  # (cost, T') -> [(t, sum_L q^(L*T') A_{cost,L,t})]
    rows = {empty: {0: 1}}
    for b in order:
        X = {}  # T -> T' -> X_{b,T,T'}
        for (cost, sub), count in split[b].items():
            for T0, src in rows[sub].items():
                if (cost, T0) not in shifted:
                    shifted[cost, T0] = [
                        (t, sum(A << (bits * L * T0) for L, A in terms.items()))
                        for t, terms in groups[cost].items()
                    ]
                if count != 1:
                    src *= count
                for t, A in shifted[cost, T0]:
                    part = X.setdefault(T0 + t, {})
                    part[T0] = part.get(T0, 0) + src * A
        rows[b] = {T: _horner(parts, T, bits) for T, parts in X.items()}
    return {
        b: kernels._decode(_horner(rows[b], top + 1, bits), bits)
        for b, top in tops.items()
    }


def _counted_rows(paths, budget, steps, tops) -> dict:
    """:func:`_numerator_rows` over a list of components whose weights are
    counts, so ||A_cost|| sums count * 2^(L-1) over those of each cost."""
    norms = {}
    for cost, L, _, _, count in paths:
        norms[cost] = norms.get(cost, 0) + (count << (L - 1))
    return _numerator_rows(lambda bits: paths, budget, steps, tops, norms)


def _type_steps(b) -> dict:
    """Budget rule of a single shape: b counts the components of each type,
    and placing one of type i spends one unit of b_i.  Types never merge."""
    return {(i, b[:i] + (m - 1,) + b[i + 1 :]): 1 for i, m in enumerate(b) if m}


def _compress(b) -> tuple:
    """A gap budget with its zero entries dropped: a zero level adds no box."""
    return tuple(x for x in b if x)


def _gap_steps(b) -> dict:
    """Budget rule of a compressed gap budget: a component spends any vector
    0 != c <= b, and the c are counted by (compress(c), compress(b - c)).
    The counts are carried one entry of b at a time, each entry x splitting
    as y + (x - y) with a zero part dropped; c = 0 is the one split
    ((), b)."""
    out = {((), ()): 1}
    for x in b:
        grown = {}
        for (c, rest), count in out.items():
            for y in range(x + 1):
                key = (c + (y,) if y else c), (rest + (x - y,) if x > y else rest)
                grown[key] = grown.get(key, 0) + count
        out = grown
    del out[(), b]
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
    tops = {budget: shape.size}
    return _counted_rows(paths, budget, _type_steps, tops)[budget]


#: (P_0, ..., P_D) of the largest one-gap run (the module docstring's rule)
_numerators: tuple = ()


def _one_gap_numerators(D: int) -> tuple:
    """P_d with FZ_d / Z = P_d / prod_{i<=d} (1 - q^i), for every d <= D.
    A component of size s costs (s,) and has t <= s, so T <= d."""
    global _numerators
    nums = _numerators
    if D >= len(nums):
        tops = {(d,): d for d in range(1, D + 1)}
        paths = partial(_one_gap_paths, D)
        rows = _numerator_rows(paths, (D,), _gap_steps, tops, _one_gap_norms(D))
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
    :func:`_numerator_rows` takes them: for each cost, every connected
    shape of that size with its number of fillings with content ``cost``;
    shapes with none are left out.  ``shapes.component_fillings`` counts the
    fillings of each size for all its costs at once, once per orbit of the
    transpose and the 180-degree rotation."""
    from .shapes import component_fillings

    by_size = {}
    for cost in costs:
        by_size.setdefault(sum(cost), []).append(cost)
    paths = []
    for size, sized in by_size.items():
        for comp, counts in component_fillings(size, sized):
            found = [(cost, n) for cost, n in counts.items() if n]
            if found:
                data = _path_data(comp)
                paths.extend((cost, *data, fillings) for cost, fillings in found)
    return paths


@lru_cache(maxsize=None)
def _rank_form(r: int, D: int) -> RationalForm:
    """Rational form of FQ_{r,D} / Z^r over the canonical denominator
    prod_{j=1}^{D} (1 - q^j)^{e_j}, e_j = min(r, D // j), exact: a gap
    multiset lam of D contributes inj(r, lam) * prod_i P_{lam_i} over
    prod_j (1 - q^j)^{lam'_j}, lam'_j = #{i : lam_i >= j} the conjugate,
    with P_d the one-gap numerators and inj(r, lam) = perm(r, len(lam)) /
    prod_m mult_m! = C(r, lam'_1) prod_j C(lam'_j, lam'_(j+1)), 0 past r
    parts.  At most e_j parts of lam are >= j, and over all j they count D
    boxes, so every term takes sum_j e_j - D factors (1 - q^j), each at
    most doubling its l1 norm.  One pointer walking down lam gives lam'_j
    for j <= lam_1; every lam with lam_1 < j takes all e_j factors of j,
    so these are taken once, by Horner's rule over lam_1.  The sum runs on
    ints at q = 2^bits (``kernels``).
    """
    from .partitions import enum_partitions  # fz loads no partitions

    denominator = {j: min(r, D // j) for j in range(1, D + 1)}
    nums = _one_gap_numerators(D)
    norms = [sum(map(abs, p)) for p in nums]
    by_top, bound = [[] for _ in range(D + 1)], 0  # lam_1 -> [(inj, lam, factors)]
    for lam in enum_partitions(D):
        if len(lam) <= r:
            i, factors, weight = len(lam), [], comb(r, len(lam))  # i = lam'_j
            for j in range(1, lam[0] + 1):
                above = i
                while lam[i - 1] < j:
                    i -= 1
                weight *= comb(above, i)
                factors += [j] * (denominator[j] - i)
            by_top[lam[0]].append((weight, lam, factors))
            bound += weight * prod(norms[part] for part in lam)
    bits = kernels._signed_bits(bound << (sum(denominator.values()) - D))
    lifted, value = [kernels._pack(p, bits) for p in nums], 0
    for top, e in denominator.items():
        for _ in range(e):
            value -= value << (bits * top)
        for weight, lam, factors in by_top[top]:
            term = prod(lifted[part] for part in lam)
            for j in factors:
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
    rows = _counted_rows(paths, budget, _gap_steps, {budget: K})
    return RationalForm(rows[budget], denominator)
