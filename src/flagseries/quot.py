"""Higher-rank flag series and the functional identities relating them
to the rank-one theory.

The rank-r count with one gap D splits over r-tuples of gaps summing to D,
so every rank-r series is a polynomial expression in the rank-one series.
``engine.rational_form((D,), r)``, the one constructor, builds that
expression exactly, and every series here is such a form expanded with
Z^r.  The verify_* routines check the closed functional equations; each
takes one side, Q(q,s) or FQ(q,s,v), built once by :func:`identity_suite`
for every check that reads it, builds the rest independently and compares
coefficients exactly.  A functional equation U = 1 / W is checked as the
product U * W = 1, which holds within the truncation exactly when U
inverts the unit W.  In the functional equation and the exponential
identity one side is built from these exact forms and the other from the
rank-one series, so both referee the forms that ``fq`` prints.
"""

from __future__ import annotations

from math import comb

from .engine import rational_form
from .partitions import coloured_flag_counts
from .series import QSeries, RationalForm, expand_dense, ps_mul


# fq_rD and rational_form_rD stay public only because perfbench/child.py calls them.
def fq_rD(r: int, D: int, truncation: int) -> QSeries:
    """FQ_{r,D} to q^truncation: ``rational_form((D,), r)`` times Z^r."""
    return rational_form((D,), r).expand(truncation, z_power=r)


def rational_form_rD(r: int, D: int) -> RationalForm:
    """``rational_form((D,), r)`` for a positive rank r and gap D."""
    if r < 1 or D < 1:
        raise ValueError("rank and gap must be positive")
    return rational_form((D,), r)


# -- functional identities -------------------------------------------------


def q_surface(nq: int, ns: int) -> QSeries:
    """Q(q, s) = sum_r Z(q)^r s^r in variables (s, q): one row per r."""
    rows = {(r,): expand_dense([1], {}, nq, r) for r in range(ns + 1)}
    return QSeries.from_rows(("s", "q"), (ns, nq), rows)


def verify_q_identity(q_big: QSeries) -> bool:
    """Check Q(q,s) * (1 - s Z(q)) = 1 for ``q_big`` = :func:`q_surface`,
    building the factor 1 - s Z(q) separately."""
    variables, trunc = q_big.variables, q_big.truncation
    nq = trunc[-1]
    one = QSeries.one(variables, trunc)
    s_z = QSeries.from_rows(variables, trunc, {(1,): expand_dense([1], {}, nq, 1)})
    return ps_mul(q_big, one - s_z) == one


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


def verify_fq_functional(fq: QSeries) -> bool:
    """Check FQ(q,s,v) * (1 - FZ(q,v) s) = 1 for ``fq`` = :func:`fq_surface`,
    building the factor 1 - FZ(q,v) s from the rank-one forms."""
    variables = fq.variables
    trunc = ns, nv, nq = fq.truncation
    one = QSeries.one(variables, trunc)
    fz = _fz_qv(nq, ns, nv, z_power=1)
    s = QSeries.monomial(variables, trunc, (1, 0, 0))
    return ps_mul(fq, one - ps_mul(fz, s)) == one


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


def verify_exponential_identity(fq: QSeries, q_big: QSeries) -> bool:
    """Check the exponential-operator expression for ``fq`` = FQ(q,s,v),
    :func:`fq_surface`, built from ``q_big`` = Q(q,s), :func:`q_surface`,
    of the same orders in s and q.

    The exponential of the normalized gap series, expanded in v with the
    number of factors tracked, turns each product of l gap factors into the
    operator (s^l / l!) d^l/ds^l applied to Q(q,s).  Tracking l (rather than
    the v-degree) is forced by the v^2 coefficient already mixing one- and
    two-factor terms; divided factorials pair with falling factorials into
    binomials, keeping everything integral.
    """
    variables = fq.variables
    trunc = ns, nv, nq = fq.truncation
    if q_big.truncation != (ns, nq):
        raise ValueError("Q(q,s) and FQ(q,s,v) differ in their orders in s and q")
    gaps = _fz_qv(nq, ns, nv, z_power=0) - QSeries.one(variables, trunc)
    q_sv = QSeries.from_rows(
        variables, trunc, {(r, 0): row for (r,), row in q_big.rows.items()}
    )
    rhs = QSeries.zero(variables, trunc)
    power = QSeries.one(variables, trunc)
    for order in range(nv + 1):
        if order:
            power = ps_mul(power, gaps)
            if power.is_zero():
                break
        rhs = rhs + ps_mul(power, binomial_weighted_derivative(q_sv, order))
    return fq == rhs


def verify_fq2_example(q_big: QSeries) -> bool:
    """Check the closed expression for the series of rank-r counts of
    2-in-n coloured nestings against the coloured oracle and against the
    displayed second-order differential operator applied to ``q_big`` =
    Q(q,s), :func:`q_surface`, at its orders in s and q."""
    variables = q_big.variables
    trunc = ns, nq = q_big.truncation

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


def identity_suite():
    """The checks ``verify`` runs, in order, as (name, check) pairs; a check
    returns True when its two constructions agree.  Q(q,s) and FQ(q,s,v)
    are built once, here, for the checks that read them; FQ asks for the
    largest gap first, so one numerator run serves every later check."""
    from . import motives
    from .partitions import count_nested_flags

    nq, ns, nv = 12, 4, 4
    dmax, nmax = 4, 10
    fq = fq_surface(nq, ns, nv)
    q_big = q_surface(nq, ns)

    def oracle_one_gap():
        return all(
            rational_form((D,)).expand(nmax, z_power=1).dense()
            == [count_nested_flags((n, n + D)) for n in range(nmax + 1)]
            for D in range(dmax + 1)
        )

    def oracle_coloured():
        oracles = {r: coloured_flag_counts(r, (6, 8)) for r in (2, 3)}
        return all(
            rational_form((D,), r).expand(6, z_power=r).dense()
            == [oracles[r][n, n + D] for n in range(7)]
            for r in (2, 3) for D in range(3)
        )

    def strata_close():
        return all(
            motives.motive_strata(n).total() == motives.gottsche_punctual(n)[n]
            for n in range(4, 17)
        )

    return [
        ("geometric-series identity for the unnested rank table",
         lambda: verify_q_identity(q_big)),
        ("functional equation for the one-gap rank table",
         lambda: verify_fq_functional(fq)),
        ("exponential-operator expression for the one-gap rank table",
         lambda: verify_exponential_identity(fq, q_big)),
        ("second-order operator identity for fixed small size 2",
         lambda: verify_fq2_example(q_big)),
        ("one-gap series equals the flag oracle", oracle_one_gap),
        ("rank series equals the colouring oracle", oracle_coloured),
        ("stratification closes on the punctual motive", strata_close),
    ]
