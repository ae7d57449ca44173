from math import comb

import pytest

from flagseries.engine import fz_D, partition_series
from flagseries.partitions import coloured_flag_counts, partition_count
from flagseries.quot import (
    fq_rD,
    q_rank_series,
    q_surface,
    rational_form_rD,
    verify_exponential_identity,
    verify_fq2_example,
    verify_fq_functional,
    verify_q_identity,
)
from flagseries.series import QSeries, RationalForm, ps_mul, ps_pow
from referees import fq_rD_via_generating, ratio_rD_dense


def test_q_rank_series():
    assert q_rank_series(0, 8).dense() == [1] + [0] * 8
    assert q_rank_series(1, 8) == partition_series(8)
    assert q_rank_series(2, 8)[(2,)] == 5


def test_q_rank_series_is_a_power_of_the_partition_counts():
    # The prefix-sum expansion of Z^r against repeated products of the
    # series of p(m), counted by the partition oracle.
    for n in range(31):
        z = QSeries.from_dense("q", [partition_count(m) for m in range(n + 1)])
        assert partition_series(n) == z
        for r in range(7):
            assert q_rank_series(r, n) == ps_pow(z, r), (r, n)


def test_fq_r1_is_rank_one():
    for D in range(4):
        assert fq_rD(1, D, 12) == fz_D(D, 12)


def test_fq_rD_one_gap_formula():
    n = 12
    for r in (2, 3, 4):
        lhs = fq_rD(r, 1, n)
        rhs = r * ps_mul(fz_D(1, n), ps_pow(partition_series(n), r - 1))
        assert lhs == rhs


def test_fq_rD_two_gap_formula():
    n = 12
    z = partition_series(n)
    for r in (2, 3, 4):
        lhs = fq_rD(r, 2, n)
        rhs = r * ps_mul(fz_D(2, n), ps_pow(z, r - 1)) + comb(r, 2) * ps_mul(
            ps_pow(fz_D(1, n), 2), ps_pow(z, r - 2)
        )
        assert lhs == rhs


def test_fq_composition_route_matches_generating_route():
    for r in (1, 2, 3):
        for D in range(4):
            assert fq_rD(r, D, 10) == fq_rD_via_generating(r, D, 10)


def test_fq_matches_coloured_oracle():
    for r in (1, 2, 3):
        oracle = coloured_flag_counts(r, (10, 13))
        for D in range(4):
            series = fq_rD(r, D, 10)
            for n in range(11):
                assert series[(n,)] == oracle[(n, n + D)]


def test_rational_form_rD_examples():
    # gap 1: r / (1 - q) for every rank
    for r in (1, 2, 5):
        rf = rational_form_rD(r, 1)
        n = 30
        assert rf.expand(n) == RationalForm([r], {1: 1}).expand(n)
    # rank 1 reduces to the one-colour polynomial
    assert list(rational_form_rD(1, 3).numerator) == [3, -1, -1]
    # rank 2, gap 2: canonical denominator re-expands to (5 - q) over
    # (1-q)(1-q^2)
    rf = rational_form_rD(2, 2)
    assert rf.denominator == {1: 2, 2: 1}
    n = 40
    assert rf.expand(n) == RationalForm([5, -1], {1: 1, 2: 1}).expand(n)


def test_rational_form_rD_denominator_shape():
    rf = rational_form_rD(3, 4)
    assert rf.denominator == {1: 3, 2: 2, 3: 1, 4: 1}


def test_rational_form_rD_expands_to_row_products():
    # The exact form against the truncated products of one-gap rows, ten
    # coefficients past the numerator and denominator degrees.
    for r in range(1, 6):
        for D in range(1, 11):
            rf = rational_form_rD(r, D)
            den_deg = sum(j * e for j, e in rf.denominator.items())
            n = rf.numerator_degree + den_deg + 10
            assert rf.expand(n).dense() == ratio_rD_dense(r, D, n), (r, D)


def test_rational_form_rD_constant_term():
    # q^0 of FQ_{r,D}: r-tuples of partitions of total size D.
    for r in range(1, 6):
        for D in range(11, 15):
            assert rational_form_rD(r, D).numerator[0] == q_rank_series(r, D)[(D,)]


def test_q_identity():
    assert verify_q_identity(8, 4)
    # s-slices: coefficient of s^1 q^n is p(n)
    surface = q_surface(8, 4)
    z = partition_series(8)
    for n in range(9):
        assert surface[(1, n)] == z[(n,)]
    assert surface[(2, 2)] == 5


def test_fq_functional():
    assert verify_fq_functional(10, 3, 3)


def test_exponential_identity():
    assert verify_exponential_identity(10, 3, 3)


def test_fq2_example():
    assert verify_fq2_example(8, 4)


def test_fq_requires_positive_rank():
    with pytest.raises(ValueError):
        fq_rD(0, 1, 5)
