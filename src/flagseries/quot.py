"""Higher-rank flag series and the functional identities relating them
to the rank-one theory.

The rank-r count with one gap D splits over r-tuples of gaps summing to D,
so every rank-r series is a polynomial expression in the rank-one series.
:func:`rational_form_rD` builds that expression exactly, from products of
the one-gap numerators over one canonical denominator, and every rank-r
series is expanded from it, as the one-gap series are from theirs.  The
verify_* routines check the closed functional equations; each builds both
sides independently and compares coefficients exactly.  In the functional
equation and the exponential identity one side is built from these exact
forms and the other from the rank-one series, so both referee the forms
that ``fq`` prints.
"""

from __future__ import annotations

from math import comb, factorial, perm

from .engine import (
    _grow_add,
    _mul,
    _one_gap_numerators,
    _times_one_minus,
    fz_D,
    fz_ratio_D,
)
from .partitions import coloured_flag_counts, enum_partitions
from .series import QSeries, RationalForm, expand_dense, ps_inv, ps_mul

__all__ = [
    "q_rank_series",
    "fq_rD",
    "rational_form_rD",
    "verify_q_identity",
    "verify_fq_functional",
    "verify_exponential_identity",
    "verify_fq2_example",
]


def q_rank_series(r: int, truncation: int) -> QSeries:
    """Rank-r unnested series: the r-th power of the partition series."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    return RationalForm((1,), {}).expand(truncation, z_power=r)


def _injections(r: int, parts) -> int:
    """Ways to assign the multiset of gaps ``parts`` to r distinct colours."""
    l = len(parts)
    if l > r:
        return 0
    denom = 1
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    for m in mult.values():
        denom *= factorial(m)
    return perm(r, l) // denom


def fq_rD(r: int, D: int, truncation: int) -> QSeries:
    """Series whose q^n coefficient counts r-coloured nested pairs of sizes
    (n, n+D): the exact form of FQ_{r,D} / Z^r expanded with Z^r.  D = 0
    gives Z^r."""
    if r < 1:
        raise ValueError("rank must be positive")
    if D < 0:
        raise ValueError("D must be nonnegative")
    if D == 0:
        return q_rank_series(r, truncation)
    return rational_form_rD(r, D).expand(truncation, z_power=r)


def rational_form_rD(r: int, D: int) -> RationalForm:
    """Rational form of FQ_{r,D} / Z^r over the canonical denominator
    prod_{j=1}^{D} (1 - q^j)^{min(r, D // j)}, exact.

    A gap multiset lam contributes inj(r, lam) * prod_i P_{lam_i} over
    prod_j (1 - q^j)^{#{i : lam_i >= j}}, with P_d the one-gap numerators.
    At most min(r, D // j) parts of lam are >= j, so bringing each term to
    the canonical denominator only multiplies by factors (1 - q^j): no
    division, truncation or degree bound.
    """
    if r < 1 or D < 1:
        raise ValueError("rank and gap must be positive")
    denominator = {j: min(r, D // j) for j in range(1, D + 1)}
    nums = _one_gap_numerators(D)
    numerator = []
    for lam in enum_partitions(D):
        weight = _injections(r, lam)
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


# -- functional identities -------------------------------------------------


def _q_into(variables, qdense, exps_rest, truncation):
    """Embed a dense q-list as a multivariate series times a monomial."""
    coeffs = {}
    for a, c in enumerate(qdense):
        if c and a <= truncation[0]:
            coeffs[(a,) + exps_rest] = c
    return QSeries(variables, truncation, coeffs)


def q_surface(nq: int, ns: int) -> QSeries:
    """Q(q, s) = sum_r Z(q)^r s^r, built termwise."""
    variables = ("q", "s")
    trunc = (nq, ns)
    total = QSeries.zero(variables, trunc)
    for r in range(ns + 1):
        total = total + _q_into(variables, expand_dense([1], {}, nq, r), (r,), trunc)
    return total


def verify_q_identity(nq: int, ns: int) -> bool:
    """Check Q(q,s) * (1 - s Z(q)) = 1 by building both sides separately."""
    variables = ("q", "s")
    trunc = (nq, ns)
    lhs = q_surface(nq, ns)
    one = QSeries.one(variables, trunc)
    s_z = _q_into(variables, expand_dense([1], {}, nq, 1), (1,), trunc)
    rhs = ps_inv(one - s_z)
    return lhs == rhs


def fq_surface(nq: int, ns: int, nv: int) -> QSeries:
    """FQ(q, s, v) = sum_{r, D} FQ_{r,D}(q) s^r v^D, built termwise."""
    variables = ("q", "s", "v")
    trunc = (nq, ns, nv)
    coeffs = {}
    for D in range(nv + 1):
        coeffs[(0, 0, D)] = 1 if D == 0 else 0
        for r in range(1, ns + 1):
            for a, c in enumerate(fq_rD(r, D, nq).dense()):
                if c:
                    coeffs[(a, r, D)] = c
    coeffs = {e: c for e, c in coeffs.items() if c}
    return QSeries(variables, trunc, coeffs)


def _fz_qv(nq: int, nv: int, variables, trunc, normalized=False) -> QSeries:
    """FZ(q, v) = sum_D FZ_D(q) v^D embedded into a larger variable list;
    with ``normalized`` the D-th coefficient is divided by Z."""
    out = QSeries.zero(variables, trunc)
    pos_v = variables.index("v")
    for D in range(nv + 1):
        dense = (
            fz_ratio_D(D, nq).dense() if normalized else fz_D(D, nq).dense()
        )
        exps_rest = [0] * (len(variables) - 1)
        exps_rest[pos_v - 1] = D
        out = out + _q_into(variables, dense, tuple(exps_rest), trunc)
    return out


def verify_fq_functional(nq: int, ns: int, nv: int) -> bool:
    """Check FQ(q,s,v) * (1 - FZ(q,v) s) = 1 with both sides independent."""
    variables = ("q", "s", "v")
    trunc = (nq, ns, nv)
    lhs = fq_surface(nq, ns, nv)
    one = QSeries.one(variables, trunc)
    fz = _fz_qv(nq, nv, variables, trunc)
    s = QSeries.monomial(variables, trunc, (0, 1, 0))
    rhs = ps_inv(one - ps_mul(fz, s))
    return lhs == rhs


def binomial_weighted_derivative(series: QSeries, order: int) -> QSeries:
    """Apply (s^l / l!) d^l/ds^l termwise: s^r picks up a factor C(r, l).

    Exact integer weights, no intermediate rationals and no coefficient
    loss at the top s-order.
    """
    pos = series.variables.index("s")
    out = {}
    for exps, c in series.coefficients.items():
        w = comb(exps[pos], order)
        if w:
            out[exps] = c * w
    return QSeries(series.variables, series.truncation, out)


def verify_exponential_identity(nq: int, ns: int, nv: int) -> bool:
    """Check the exponential-operator expression for FQ(q,s,v).

    The exponential of the normalized gap series, expanded in v with the
    number of factors tracked, turns each product of l gap factors into the
    operator (s^l / l!) d^l/ds^l applied to Q(q,s).  Tracking l (rather than
    the v-degree) is forced by the v^2 coefficient already mixing one- and
    two-factor terms; divided factorials pair with falling factorials into
    binomials, keeping everything integral.
    """
    variables = ("q", "s", "v")
    trunc = (nq, ns, nv)
    lhs = fq_surface(nq, ns, nv)
    gaps = _fz_qv(nq, nv, variables, trunc, normalized=True) - QSeries.one(
        variables, trunc
    )
    q_big = QSeries(
        variables,
        trunc,
        {(a, r, 0): c for (a, r), c in q_surface(nq, ns).coefficients.items()},
    )
    rhs = QSeries.zero(variables, trunc)
    power = QSeries.one(variables, trunc)
    for order in range(nv + 1):
        if order:
            power = ps_mul(power, gaps)
            if power.is_zero():
                break
        rhs = rhs + ps_mul(power, binomial_weighted_derivative(q_big, order))
    return lhs == rhs


def verify_fq2_example(nq: int, ns: int) -> bool:
    """Check the closed expression for the series of rank-r counts of
    2-in-n coloured nestings against the coloured oracle and against the
    displayed second-order differential operator applied to Q(q,s)."""
    variables = ("q", "s")
    trunc = (nq, ns)

    oracle = {}
    for r in range(1, ns + 1):
        counts = coloured_flag_counts(r, (2, max(nq, 2)))
        for n in range(2, nq + 1):
            oracle[(n, r)] = counts[(2, n)]
    oracle_series = QSeries(variables, trunc, oracle)

    def z_pow(r, over_one_minus_q=0):
        """Z^r / (1 - q)^over_one_minus_q, dense; zero for r < 0."""
        if r < 0:
            return [0] * (nq + 1)
        return expand_dense([1], {1: over_one_minus_q}, nq, r)

    closed = {}
    for r in range(ns + 1):
        qr, qr1, qr2 = z_pow(r), z_pow(r - 1), z_pow(r - 2)
        qr1_over = z_pow(r - 1, 1)
        for a in range(nq + 1):
            val = 2 * r * (qr[a] - qr1_over[a]) + comb(r, 2) * (
                qr[a] - 2 * qr1[a] + qr2[a]
            )
            if val:
                closed[(a, r)] = val
    closed_series = QSeries(variables, trunc, closed)

    # (s^2 - 2s/(1-q) + (2s(1-s+s^2) - 2s^2/(1-q)) d/ds
    #      + (s^2 (1-s)^2 / 2) d^2/ds^2) . Q(q, s)
    operator = {}
    for r in range(ns + 1):
        qr, qr_over = z_pow(r), z_pow(r, 1)
        terms = (
            (qr, 2, 1),                   # s^2
            (qr, 0, 2 * r),               # 2 s d/ds
            (qr, 1, -2 * r),              # -2 s^2 d/ds
            (qr, 2, 2 * r),               # 2 s^3 d/ds
            (qr, 0, comb(r, 2)),          # s^2/2 d^2/ds^2
            (qr, 1, -r * (r - 1)),        # -s^3 d^2/ds^2
            (qr, 2, comb(r, 2)),          # s^4/2 d^2/ds^2
            (qr_over, 1, -2 - 2 * r),     # -2s/(1-q) and -2s^2/(1-q) d/ds
        )
        for dense, ds, w in terms:
            rr = r + ds
            if rr <= ns and w:
                for a, c in enumerate(dense):
                    operator[a, rr] = operator.get((a, rr), 0) + w * c
    operator_series = QSeries(
        variables, trunc, {e: c for e, c in operator.items() if c}
    )

    return oracle_series == closed_series == operator_series
