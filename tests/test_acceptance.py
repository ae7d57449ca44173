"""Acceptance suite.

Each criterion is exercised at its stated tolerance (everything here is
exact integer equality) and reports one PASS/FAIL line; run with -s (or
read captured output) for the per-criterion report.
"""

import itertools
import time

from flagseries.engine import rational_form
from flagseries.forms import RationalForm
from flagseries.motives import (
    LPoly,
    component_count,
    gottsche_punctual,
    motive_2n,
    motive_3n,
    motive_strata,
    series_2bullet,
    series_3bullet,
)
from flagseries.partitions import (
    coloured_flag_counts,
    count_nested_flags,
    partition_count,
)
from flagseries.quot import (
    fq_surface,
    q_surface,
    verify_exponential_identity,
    verify_fq2_example,
    verify_fq_functional,
    verify_q_identity,
)
from flagseries.series import ps_mul
from flagseries.surfaces import (
    DEL_PEZZO_TARGET,
    SurfaceProfile,
    globalize,
    punctual_nested_table,
    resolve_dp6_exponent,
)
from referees import (
    clear_denominator,
    count_partitions_with_k_parts,
    enum_skew_classes,
    rational_form_degree_bound,
    rational_form_k_degree_bound,
    transpose,
    truncated_ratio,
)


def report(number, description, body):
    start = time.time()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description} [{time.time() - start:.1f}s]")


# Published one-gap numerators over prod_{j=1}^{D} (1 - q^j).
PUBLISHED_ONE_GAP = {
    1: [1],
    2: [2, -1],
    3: [3, -1, -1],
    4: [5, -3, 1, -2, -1, 1],
    5: [7, -3, -1, 1, -2, -5, 3, 1, -1, 2, -1],
    6: [11, -7, 1, 1, 1, -11, 3, -2, 2, 0, 1, 4, -4, 2, -1],
    7: [15, -8, -1, 4, 0, -7, -3, -14, 12, 2, -9, 7, 5, 1, 1, -4, -1, 5,
        -7, 2, 2, -1],
    8: [22, -14, 0, 4, 11, -19, 6, -27, 7, 4, -1, -13, 15, 4, 1, 13, -8,
        -3, 6, 1, -15, 5, 1, 4, -7, 3, 3, -2],
    9: [30, -18, -4, 13, 8, -16, 9, -33, -1, -6, 1, -5, 9, -16, 7, 32, 6,
        -12, 8, 6, -10, 2, -5, 1, -22, 16, 7, -15, 4, 12, -11, 6, 1, -6,
        4, -1],
    10: [42, -28, -2, 11, 23, -23, 24, -64, 25, -32, -7, -6, 38, -76, 23,
         31, 13, 8, 23, -7, 16, -8, -15, 47, -47, -26, 15, 12, -33, 24,
         -19, 19, -5, -3, 25, -7, -28, 20, 9, -9, -6, -1, 8, -3],
}

# Published multi-gap ratios (numerator, {j: e}) relative to the partition
# series; the engine's canonical denominator may differ, equality is by
# re-expansion.
PUBLISHED_MULTI_GAP = {
    (1, 1): ([2], {1: 1, 2: 1}),
    (1, 1, 1): ([4, -2], {1: 2, 2: 1}),
    (1, 1, 1, 1): ([10, -4, -2], {1: 2, 2: 2}),
    (1, 1, 1, 1, 1): ([26, -28, 6], {1: 3, 2: 2}),
    (1, 1, 1, 1, 1, 1): ([76, -72, -12, 16], {1: 3, 2: 3}),
    (1, 2): ([3, 2, -1, -1], {1: 1, 2: 1, 3: 1}),
    (2, 1): ([4, -1, 2, -2], {1: 1, 2: 1, 3: 1}),
    (2, 2): ([8, -3, 8, -4, -2, -1], {1: 1, 2: 1, 3: 1, 4: 1}),
}


def test_criterion_1_one_gap_tables():
    def body():
        start = time.time()
        for D in range(1, 9):
            rf = rational_form((D,))
            assert list(rf.numerator) == PUBLISHED_ONE_GAP[D], D
            assert rf.denominator == {j: 1 for j in range(1, D + 1)}
        small_elapsed = time.time() - start
        for D in (9, 10):
            rf = rational_form((D,))
            assert list(rf.numerator) == PUBLISHED_ONE_GAP[D], D
        total_elapsed = time.time() - start
        assert small_elapsed < 60, "gaps up to 8 expected well under a minute"
        assert total_elapsed < 600, "gap 10 expected under ten minutes"

    report(1, "published one-gap numerators for D = 1..10, exact", body)


def test_criterion_2_multi_gap_tables():
    def body():
        order = 40
        z = rational_form(()).expand(order, z_power=1)
        for k, (num, den) in PUBLISHED_MULTI_GAP.items():
            rf = rational_form(k)
            published = RationalForm(num, den).expand(order)
            assert rf.expand(order) == published, k
            assert rf.expand(order, z_power=1) == ps_mul(published, z), k

    report(2, "published multi-gap ratios re-expand equal, order 40", body)


def test_criterion_3_oracle_equivalence():
    def body():
        for D in range(5):
            series = rational_form((D,)).expand(12, z_power=1)
            for n in range(13):
                assert series[(n,)] == count_nested_flags((n, n + D)), (D, n)
        for length in range(1, 5):
            for gaps in itertools.product(range(5), repeat=length):
                if sum(gaps) > 4:
                    continue
                series = rational_form(gaps).expand(10, z_power=1)
                for n in range(11):
                    sizes = [n]
                    for g in gaps:
                        sizes.append(sizes[-1] + g)
                    assert series[(n,)] == count_nested_flags(sizes), (gaps, n)

    report(3, "series engines match the brute-force flag oracle", body)


def test_criterion_4_special_value_laws():
    def body():
        p = partition_count
        for D in range(1, 11):
            rf = rational_form((D,))
            num = list(rf.numerator) + [0] * 4
            assert num[0] == p(D), D
            assert sum(rf.numerator) == 1, D
            assert num[1] == p(D + 1) - 2 * p(D), D
            if D >= 2:
                assert num[2] == 2 * p(D + 2) - 2 * p(D + 1) - p(D) - 2, D
            if D >= 3:
                expected = (
                    3 * p(D + 3) - 4 * p(D + 2) - p(D + 1) + 2 * p(D)
                    - 2 - D - (D % 2)
                )
                assert num[3] == expected, D

    report(4, "value and low-coefficient laws of the one-gap numerators", body)


def test_criterion_5_higher_rank_identities():
    def body():
        q_big, fq = q_surface(12, 4), fq_surface(12, 4, 4)
        assert verify_q_identity(q_big)
        assert verify_fq_functional(fq)
        assert verify_exponential_identity(fq, q_big)
        assert verify_fq2_example(q_big)

    report(5, "higher-rank functional identities at (q,s,v) <= (12,4,4)", body)


def test_criterion_6_coloured_oracle():
    def body():
        for r in (1, 2, 3):
            oracle = coloured_flag_counts(r, (10, 13))
            for D in range(4):
                series = rational_form((D,), r).expand(10, z_power=r)
                for n in range(11):
                    assert series[(n,)] == oracle[(n, n + D)], (r, D, n)

    report(6, "rank series match the colouring oracle", body)


def test_criterion_7_del_pezzo_headline():
    def body():
        exponent = resolve_dp6_exponent()
        assert 2 <= exponent <= 12
        table = punctual_nested_table(6, 6, 12)
        surface = SurfaceProfile("sixth del Pezzo", exponent)
        powered = globalize(table, surface)
        assert powered[(6, 12)] == DEL_PEZZO_TARGET

    report(7, "del Pezzo headline count via a unique resolved exponent", body)


def test_criterion_8a_base_motives():
    def body():
        assert motive_2n(4) == LPoly((1, 2, 3, 2))
        assert motive_3n(5) == LPoly((1, 2, 4, 4, 2))

    report("8a", "registered one-gap base motives", body)


def test_criterion_8b_motive_series_closed_forms():
    def body():
        series_2bullet(15)
        series_3bullet(15)  # both assert closed == termwise internally

    report("8b", "motive series closed forms match termwise builds", body)


def test_criterion_8c_stratification_closes():
    def body():
        for n in range(4, 21):
            assert motive_strata(n).total() == gottsche_punctual(n)[n], n

    report("8c", "stratification sums close for 4 <= n <= 20", body)


def test_criterion_8d_euler_specializations():
    def body():
        for n in range(2, 15):
            assert motive_2n(n)(1) == count_nested_flags((2, n)), n
        for n in range(3, 15):
            assert motive_3n(n)(1) == count_nested_flags((3, n)), n

    report("8d", "motive Euler specializations match the flag oracle", body)


def test_criterion_8e_leading_coefficients():
    def body():
        for n in range(4, 15):
            assert motive_2n(n).leading_coefficient == component_count(
                "2n", n
            ), n
        for n in range(4, 15):
            # The closed (3, n) motive once gave one less than the component
            # count on even n >= 6; F_q point counts showed the motive was
            # at fault.  See README, "Known source inconsistency (resolved)".
            assert motive_3n(n).leading_coefficient == component_count(
                "3n", n
            ), n

    report("8e", "leading motive coefficients equal component counts", body)


def test_criterion_8f_gottsche_coefficients():
    def body():
        hilb = gottsche_punctual(20)
        for n in range(21):
            for k in range(n + 1):
                assert hilb[n][n - k] == count_partitions_with_k_parts(n, k)

    report("8f", "punctual motive coefficients count partitions by parts", body)


def test_criterion_9a_transposition_invariance():
    def body():
        for D in range(1, 7):
            for shape in enum_skew_classes(D):
                assert truncated_ratio(shape, 18) == (
                    truncated_ratio(transpose(shape), 18)
                ), shape

    report("9a", "transposition invariance over all shapes of size <= 6", body)


def test_criterion_9b_degree_bounds():
    def body():
        for D in range(1, 11):
            rf = rational_form((D,))
            assert rf.numerator_degree <= rational_form_degree_bound(D), D
        for k in PUBLISHED_MULTI_GAP:
            rf = rational_form(k)
            assert rf.numerator_degree <= rational_form_k_degree_bound(sum(k))

    report("9b", "every extracted numerator respects its degree bound", body)


def test_criterion_9c_shape_value_laws():
    def body():
        for D in range(1, 7):
            bound = rational_form_degree_bound(D)
            n = bound + D * (D + 1) // 2 + 10
            for shape in enum_skew_classes(D):
                ratio = truncated_ratio(shape, n)
                rf = clear_denominator(
                    ratio, {j: 1 for j in range(1, D + 1)}, bound
                )
                assert (rf.numerator[0] if rf.numerator else 0) == (
                    1 if shape.is_straight() else 0
                ), shape
                assert sum(rf.numerator) == (
                    1 if shape.is_disjoint_boxes() else 0
                ), shape

    report("9c", "shape numerator value laws over all shapes of size <= 6", body)
