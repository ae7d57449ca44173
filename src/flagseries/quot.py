"""Higher-rank flag series and the functional identities relating them
to the rank-one theory.

The rank-r count with one gap D splits over r-tuples of gaps summing to D,
so every rank-r series is a polynomial expression in the rank-one series.
:func:`rational_form_rD` builds that expression exactly, from products of
the one-gap numerators over one canonical denominator.  It is the rank-r
case of ``engine.rational_form((D,), r)``, the one constructor, and every
series here is such a form expanded with Z^r.  The verify_* routines check
the closed functional equations; each builds both sides independently and
compares coefficients exactly.  In the functional equation and the
exponential identity one side is built from these exact forms and the
other from the rank-one series, so both referee the forms that ``fq``
prints.
"""

from __future__ import annotations

from math import comb, factorial, perm

from .engine import (
    _grow_add,
    _mul,
    _one_gap_numerators,
    _times_one_minus,
    rational_form,
)
from .partitions import coloured_flag_counts, enum_partitions
from .series import QSeries, RationalForm, expand_dense, ps_inv, ps_mul


def _injections(r: int, parts) -> int:
    """Ways to assign the gaps of the partition ``parts`` to r distinct
    colours."""
    l = len(parts)
    if l > r:
        return 0
    denom = 1
    for m in parts.multiplicities().values():
        denom *= factorial(m)
    return perm(r, l) // denom


# fq_rD and rational_form_rD stay public only because perfbench/child.py calls them.
def fq_rD(r: int, D: int, truncation: int) -> QSeries:
    """FQ_{r,D} to q^truncation: ``rational_form((D,), r)`` times Z^r."""
    return rational_form((D,), r).expand(truncation, z_power=r)


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


def q_surface(nq: int, ns: int) -> QSeries:
    """Q(q, s) = sum_r Z(q)^r s^r in variables (s, q): one row per r."""
    rows = {(r,): expand_dense([1], {}, nq, r) for r in range(ns + 1)}
    return QSeries.from_rows(("s", "q"), (ns, nq), rows)


def verify_q_identity(nq: int, ns: int) -> bool:
    """Check Q(q,s) * (1 - s Z(q)) = 1 by building both sides separately."""
    variables = ("s", "q")
    trunc = (ns, nq)
    lhs = q_surface(nq, ns)
    one = QSeries.one(variables, trunc)
    s_z = QSeries.from_rows(variables, trunc, {(1,): expand_dense([1], {}, nq, 1)})
    rhs = ps_inv(one - s_z)
    return lhs == rhs


def fq_surface(nq: int, ns: int, nv: int) -> QSeries:
    """FQ(q, s, v) = sum_{r, D} FQ_{r,D}(q) s^r v^D in variables (s, v, q):
    one row per (r, D)."""
    rows = {(0, 0): [1]}
    for D in range(nv, -1, -1):
        for r in range(1, ns + 1):
            rows[r, D] = rational_form((D,), r).expand(nq, z_power=r).dense()
    return QSeries.from_rows(("s", "v", "q"), (ns, nv, nq), rows)


def _fz_qv(nq: int, ns: int, nv: int, z_power: int) -> QSeries:
    """sum_D (FZ_D / Z) Z^z_power v^D in variables (s, v, q): FZ(q, v) at
    ``z_power`` 1, and its D-th coefficients divided by Z at 0."""
    rows = {
        (0, D): rational_form((D,)).expand(nq, z_power=z_power).dense()
        for D in range(nv, -1, -1)
    }
    return QSeries.from_rows(("s", "v", "q"), (ns, nv, nq), rows)


def verify_fq_functional(nq: int, ns: int, nv: int) -> bool:
    """Check FQ(q,s,v) * (1 - FZ(q,v) s) = 1 with both sides independent."""
    variables = ("s", "v", "q")
    trunc = (ns, nv, nq)
    lhs = fq_surface(nq, ns, nv)
    one = QSeries.one(variables, trunc)
    fz = _fz_qv(nq, ns, nv, z_power=1)
    s = QSeries.monomial(variables, trunc, (1, 0, 0))
    rhs = ps_inv(one - ps_mul(fz, s))
    return lhs == rhs


def binomial_weighted_derivative(series: QSeries, order: int) -> QSeries:
    """Apply (s^l / l!) d^l/ds^l termwise: s^r picks up a factor C(r, l).

    ``s`` is a leading variable, so each row is weighted as a whole.
    Exact integer weights, no intermediate rationals and no coefficient
    loss at the top s-order.
    """
    pos = series.variables.index("s")
    rows = {
        key: [comb(key[pos], order) * c for c in row]
        for key, row in series.rows.items()
    }
    return QSeries.from_rows(series.variables, series.truncation, rows)


def verify_exponential_identity(nq: int, ns: int, nv: int) -> bool:
    """Check the exponential-operator expression for FQ(q,s,v).

    The exponential of the normalized gap series, expanded in v with the
    number of factors tracked, turns each product of l gap factors into the
    operator (s^l / l!) d^l/ds^l applied to Q(q,s).  Tracking l (rather than
    the v-degree) is forced by the v^2 coefficient already mixing one- and
    two-factor terms; divided factorials pair with falling factorials into
    binomials, keeping everything integral.
    """
    variables = ("s", "v", "q")
    trunc = (ns, nv, nq)
    lhs = fq_surface(nq, ns, nv)
    gaps = _fz_qv(nq, ns, nv, z_power=0) - QSeries.one(variables, trunc)
    q_big = QSeries.from_rows(
        variables, trunc, {(r, 0): row for (r,), row in q_surface(nq, ns).rows.items()}
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
    variables = ("s", "q")
    trunc = (ns, nq)

    oracle = {}
    for r in range(1, ns + 1):
        counts = coloured_flag_counts(r, (2, max(nq, 2)))
        oracle[(r,)] = [0, 0] + [counts[2, n] for n in range(2, nq + 1)]
    oracle_series = QSeries.from_rows(variables, trunc, oracle)

    def z_pow(r, over_one_minus_q=0):
        """Z^r / (1 - q)^over_one_minus_q, dense; zero for r < 0."""
        if r < 0:
            return [0] * (nq + 1)
        return expand_dense([1], {1: over_one_minus_q}, nq, r)

    closed = {}
    for r in range(ns + 1):
        qr, qr1, qr2 = z_pow(r), z_pow(r - 1), z_pow(r - 2)
        qr1_over = z_pow(r - 1, 1)
        closed[(r,)] = [
            2 * r * (qr[a] - qr1_over[a])
            + comb(r, 2) * (qr[a] - 2 * qr1[a] + qr2[a])
            for a in range(nq + 1)
        ]
    closed_series = QSeries.from_rows(variables, trunc, closed)

    # (s^2 - 2s/(1-q) + (2s(1-s+s^2) - 2s^2/(1-q)) d/ds
    #      + (s^2 (1-s)^2 / 2) d^2/ds^2) . Q(q, s), where s^l/l! d^l/ds^l
    # is binomial_weighted_derivative of order l
    q_big = q_surface(nq, ns)
    d1 = binomial_weighted_derivative(q_big, 1)
    d2 = binomial_weighted_derivative(q_big, 2)
    s = QSeries.monomial(variables, trunc, (1, 0))
    over = QSeries.from_rows(variables, trunc, {(0,): [1] * (nq + 1)})  # 1/(1-q)
    operator_series = (
        s * s * q_big + 2 * d1 - 2 * s * d1 + 2 * s * s * d1
        + d2 - 2 * s * d2 + s * s * d2
        - 2 * s * over * (q_big + d1)
    )

    return oracle_series == closed_series == operator_series
