from math import comb

import pytest

from flagseries import engine
from flagseries.engine import rational_form
from flagseries.partitions import coloured_flag_counts, partition_count
from flagseries.quot import (
    _fz_qv,
    fq_surface,
    q_surface,
    verify_exponential_identity,
    verify_fq2_example,
    verify_fq_functional,
    verify_q_identity,
)
from flagseries.series import QSeries, RationalForm, ps_mul, ps_pow
from referees import fq_rD_via_generating, ps_inv, ratio_rD_dense


def test_q_rank_series():
    one = rational_form(())
    assert one.expand(8).dense() == [1] + [0] * 8
    assert one.expand(8, z_power=1).dense() == [partition_count(m) for m in range(9)]
    assert one.expand(8, z_power=2)[(2,)] == 5


def test_q_rank_series_is_a_power_of_the_partition_counts():
    # The prefix-sum expansion of Z^r against repeated products of the
    # series of p(m), counted by the partition oracle.
    for n in range(31):
        z = QSeries.from_dense("q", [partition_count(m) for m in range(n + 1)])
        assert rational_form(()).expand(n, z_power=1) == z
        for r in range(7):
            assert rational_form(()).expand(n, z_power=r) == ps_pow(z, r), (r, n)


def test_fq_r1_is_rank_one():
    # the rank-r sum at r = 1 is the one-gap form; rational_form sends
    # r = 1 to the one-gap numerators, so the sum is called directly
    for D in range(1, 8):
        assert engine._rank_form(1, D) == rational_form((D,)), D
    z = rational_form(()).expand(12, z_power=1)
    assert rational_form((0,), 1).expand(12, z_power=1) == z


def test_fq_rD_one_gap_formula():
    n = 12
    for r in (2, 3, 4):
        lhs = rational_form((1,), r).expand(n, z_power=r)
        fz1 = rational_form((1,)).expand(n, z_power=1)
        rhs = r * ps_mul(fz1, ps_pow(rational_form(()).expand(n, z_power=1), r - 1))
        assert lhs == rhs


def test_fq_rD_two_gap_formula():
    n = 12
    z = rational_form(()).expand(n, z_power=1)
    for r in (2, 3, 4):
        lhs = rational_form((2,), r).expand(n, z_power=r)
        fz1 = rational_form((1,)).expand(n, z_power=1)
        fz2 = rational_form((2,)).expand(n, z_power=1)
        rhs = r * ps_mul(fz2, ps_pow(z, r - 1)) + comb(r, 2) * ps_mul(
            ps_pow(fz1, 2), ps_pow(z, r - 2)
        )
        assert lhs == rhs


def test_fq_composition_route_matches_generating_route():
    for r in (1, 2, 3):
        for D in range(4):
            series = rational_form((D,), r).expand(10, z_power=r)
            assert series == fq_rD_via_generating(r, D, 10)


def test_fq_matches_coloured_oracle():
    for r in (1, 2, 3):
        oracle = coloured_flag_counts(r, (10, 13))
        for D in range(4):
            series = rational_form((D,), r).expand(10, z_power=r)
            for n in range(11):
                assert series[(n,)] == oracle[(n, n + D)]


def test_rational_form_rD_examples():
    # gap 1: r / (1 - q) for every rank
    for r in (1, 2, 5):
        rf = rational_form((1,), r)
        n = 30
        assert rf.expand(n) == RationalForm([r], {1: 1}).expand(n)
    # rank 1 reduces to the one-colour polynomial
    assert list(rational_form((3,), 1).numerator) == [3, -1, -1]
    # rank 2, gap 2: canonical denominator re-expands to (5 - q) over
    # (1-q)(1-q^2)
    rf = rational_form((2,), 2)
    assert rf.denominator == {1: 2, 2: 1}
    n = 40
    assert rf.expand(n) == RationalForm([5, -1], {1: 1, 2: 1}).expand(n)


def test_rational_form_rD_denominator_shape():
    rf = rational_form((4,), 3)
    assert rf.denominator == {1: 3, 2: 2, 3: 1, 4: 1}


def test_rational_form_rD_expands_to_row_products():
    # The exact form against the truncated products of one-gap rows, ten
    # coefficients past the numerator and denominator degrees.
    for r in range(1, 6):
        for D in range(1, 11):
            rf = rational_form((D,), r)
            den_deg = sum(j * e for j, e in rf.denominator.items())
            n = rf.numerator_degree + den_deg + 10
            assert rf.expand(n).dense() == ratio_rD_dense(r, D, n), (r, D)


def test_rational_form_rD_constant_term():
    # q^0 of FQ_{r,D}: r-tuples of partitions of total size D.
    for r in range(1, 6):
        for D in range(11, 15):
            z_r = rational_form(()).expand(D, z_power=r)
            assert rational_form((D,), r).numerator[0] == z_r[(D,)]


def test_q_identity():
    assert verify_q_identity(q_surface(8, 4))
    # s-slices: coefficient of s^1 q^n is p(n)
    surface = q_surface(8, 4)
    z = rational_form(()).expand(8, z_power=1)
    for n in range(9):
        assert surface[(1, n)] == z[(n,)]
    assert surface[(2, 2)] == 5


def test_fq_functional():
    assert verify_fq_functional(fq_surface(10, 3, 3))


def _one_minus_s_z(nq, ns):
    """1 - s Z(q) in variables (s, q), with Z the form 1 expanded."""
    z = rational_form(()).expand(nq, z_power=1).dense()
    variables, trunc = ("s", "q"), (ns, nq)
    return QSeries.one(variables, trunc) - QSeries.from_rows(variables, trunc, {(1,): z})


def test_inverse_builds_both_sides_of_the_functional_equations():
    # verify checks Q (1 - sZ) = 1 and FQ (1 - FZ s) = 1 as products, so
    # ps_inv is refereed here: the inverse of each unit is the other side
    assert ps_inv(_one_minus_s_z(12, 4)) == q_surface(12, 4)
    fq = fq_surface(12, 4, 4)
    s = QSeries.monomial(fq.variables, fq.truncation, (1, 0, 0))
    fz_s = ps_mul(_fz_qv(12, 4, 4, z_power=1), s)
    assert ps_inv(QSeries.one(fq.variables, fq.truncation) - fz_s) == fq
    # the hypothesis tests draw short rows only
    unit = _one_minus_s_z(200, 4)
    assert ps_mul(unit, ps_inv(unit)) == QSeries.one(unit.variables, unit.truncation)


def test_exponential_identity():
    assert verify_exponential_identity(fq_surface(10, 3, 3), q_surface(10, 3))
    with pytest.raises(ValueError):
        verify_exponential_identity(fq_surface(10, 3, 3), q_surface(8, 3))


def test_fq2_example():
    assert verify_fq2_example(q_surface(8, 4))


def test_fq_requires_positive_rank():
    with pytest.raises(ValueError):
        rational_form((1,), 0)
