import pytest

from flagseries.motives import (
    BASE_NESTED_MOTIVES,
    GLOBAL_PLANE_MOTIVES,
    HSVector,
    a_coefficients,
    component_count,
    gottsche_punctual,
    hs_dimension,
    hs_homogeneous_dimension,
    hs_motive_exponent,
    motive_2n,
    motive_3n,
    motive_strata,
    motive_Y1112,
    series_2bullet,
    series_3bullet,
    strata_assembly_3n,
)
from flagseries.motives import LEFSCHETZ as L
from flagseries.motives import LPoly, projective_space
from flagseries.partitions import count_nested_flags
from referees import count_partitions_with_k_parts, gottsche_by_lpoly

P1 = projective_space(1)
P2 = projective_space(2)


def test_gottsche_small():
    hilb = gottsche_punctual(4)
    assert hilb[0] == LPoly((1,))
    assert hilb[1] == LPoly((1,))
    assert hilb[2] == 1 + L
    assert hilb[4] == LPoly((1, 1, 2, 1))


def test_gottsche_counts_partitions_by_parts():
    hilb = gottsche_punctual(20)
    for n in range(21):
        for k in range(n + 1):
            assert hilb[n][n - k] == count_partitions_with_k_parts(n, k)


def test_gottsche_rows_equal_the_lpoly_recurrence():
    for order in range(21):
        hilb = gottsche_punctual(order)
        assert hilb == gottsche_by_lpoly(order), order
        assert all(type(c) is LPoly for c in hilb)


def test_lpoly_power_is_repeated_multiplication():
    for base in (L, P2, LPoly((2, -1, 0, 3)), LPoly((-1,)), LPoly()):
        product = LPoly((1,))
        for e in range(13):
            assert base**e == product, (base, e)
            product = product * base
    with pytest.raises(ValueError):
        L ** -1


def test_strata_n4():
    strata = motive_strata(4)
    assert strata.curvilinear == P1 * L**2
    assert strata.h1 == P2
    assert strata.h2.is_zero()
    assert strata.h3.is_zero()
    assert strata.total() == gottsche_punctual(4)[4]


def test_strata_n5():
    strata = motive_strata(5)
    assert strata.h2 == LPoly((1, 1, 1))
    assert strata.h3.is_zero()


def test_strata_split_consistency():
    for n in range(5, 16):
        strata = motive_strata(n)
        assert strata.h2 == strata.h2_split[0] + strata.h2_split[1]
        k = n // 2
        combined = L ** (n - 5) * LPoly((1, k - 1, n - 4, k - 2))
        assert strata.h2 == combined


def test_strata_close_up_to_20():
    for n in range(4, 21):
        strata = motive_strata(n)
        assert strata.total() == gottsche_punctual(n)[n]


def test_motive_2n_examples():
    assert motive_2n(4) == LPoly((1, 2, 3, 2))
    assert motive_2n(2) == 1 + L
    assert motive_2n(3) == (1 + L) ** 2
    with pytest.raises(ValueError):
        motive_2n(1)


def test_motive_3n_examples():
    assert motive_3n(3) == LPoly((1, 1, 1))
    assert motive_3n(4) == 1 + L * (1 + L) * (2 + L)
    assert motive_3n(4) == LPoly((1, 2, 3, 1))
    assert motive_3n(5) == LPoly((1, 2, 4, 4, 2))
    with pytest.raises(ValueError):
        motive_3n(2)


def test_motive_Y1112_values():
    assert motive_Y1112(5) == LPoly((0, 1, 2, 1))
    assert motive_Y1112(6) == L**2 * LPoly((1, 3, 3, 1))
    with pytest.raises(ValueError):
        motive_Y1112(4)


def test_strata_assembly_matches_closed_3n():
    for n in range(5, 21):
        assert strata_assembly_3n(n) == motive_3n(n)


def test_euler_specialization_matches_oracle():
    for n in range(2, 15):
        assert motive_2n(n)(1) == count_nested_flags((2, n))
    for n in range(3, 15):
        assert motive_3n(n)(1) == count_nested_flags((3, n))


def test_degrees_and_leading_coefficients():
    for n in range(4, 15):
        m2 = motive_2n(n)
        assert m2.degree == n - 1
        assert m2.leading_coefficient == n // 2
        m3 = motive_3n(n)
        assert m3.degree == n - 1
        assert m3.leading_coefficient == component_count("3n", n)


def test_series_2bullet():
    coeffs = series_2bullet(12)
    assert coeffs[2] == 1 + L
    assert coeffs[7] == (1 + L) ** 2 * (1 + L**2 * (2 + L + 3 * L**2))
    assert coeffs[0].is_zero() and coeffs[1].is_zero()
    with pytest.raises(ValueError, match="order must be nonnegative"):
        series_2bullet(-1)


def test_series_3bullet():
    coeffs = series_3bullet(12)
    assert coeffs[3] == motive_3n(3)
    assert coeffs[0].is_zero() and coeffs[2].is_zero()
    for n in range(3, 13):
        assert coeffs[n] == motive_3n(n)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        series_3bullet(-1)


def test_a_coefficients():
    assert a_coefficients(6) == (3, 3)
    assert a_coefficients(7) == (3, 4)
    # at n=4 the single partition with three parts is (2,1,1)
    assert a_coefficients(4) == (2, 1)
    # cross-check against partition counts with 2 and 3 parts
    for n in range(4, 21):
        a2, a3 = a_coefficients(n)
        assert a2 == count_partitions_with_k_parts(n, 2)
        assert a3 == count_partitions_with_k_parts(n, 3)
    with pytest.raises(ValueError):
        a_coefficients(3)


def test_component_count():
    assert component_count("2n", 4) == 2
    assert component_count("2n", 4) == motive_2n(4).leading_coefficient
    assert component_count("3n", 5) == 2
    assert component_count("3n", 5) == motive_3n(5).leading_coefficient
    assert component_count("3n", 12) == 12
    with pytest.raises(ValueError):
        component_count("4n", 5)


def test_hs_vector_validation():
    HSVector((1, 2, 1))
    with pytest.raises(ValueError):
        HSVector((2, 1))
    with pytest.raises(ValueError):
        HSVector((1, 3))
    with pytest.raises(ValueError):
        HSVector((1, 2, 1, 2))


def test_hs_dimension_examples():
    assert hs_dimension(HSVector((1, 2, 1))) == 2
    for n in range(2, 8):
        assert hs_dimension(HSVector((1,) * n)) == n - 1
    assert hs_dimension(HSVector((1, 2))) == 0


def test_hs_motive_exponent_matches_dimension_gap():
    vectors = [
        (1, 2, 1), (1, 2), (1, 1, 1), (1, 2, 2, 1), (1, 2, 3, 2, 1),
        (1, 2, 3, 3, 2, 2, 1), (1, 2, 2, 2, 1, 1),
    ]
    for values in vectors:
        h = HSVector(values)
        assert hs_motive_exponent(h) == hs_dimension(h) - hs_homogeneous_dimension(h)


def test_hs_exponent_reproduces_h1_stratum():
    # the (1, 2, 1^{n-3}) stratum is a projective line scaled by L^{n-3}
    for n in range(5, 12):
        h = HSVector((1, 2) + (1,) * (n - 3))
        assert hs_motive_exponent(h) == n - 3


def test_registered_base_motives():
    assert BASE_NESTED_MOTIVES[(0, 2)] == P1
    assert BASE_NESTED_MOTIVES[(1, 3)] == P2
    assert BASE_NESTED_MOTIVES[(2, 4)] == motive_2n(4)
    assert BASE_NESTED_MOTIVES[(3, 5)] == motive_3n(5)
    assert BASE_NESTED_MOTIVES[(2, 3, 4)] == P1 * LPoly((1, 2, 2))
    for spec, motive in BASE_NESTED_MOTIVES.items():
        assert motive(1) == count_nested_flags(spec)


def test_registered_global_plane_motives():
    # the affine plane has Euler characteristic 1, so the global counts
    # specialize to the punctual flag counts
    for spec, motive in GLOBAL_PLANE_MOTIVES.items():
        assert motive(1) == count_nested_flags(spec)
