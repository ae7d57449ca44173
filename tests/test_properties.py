"""Randomized structural properties tying the modules together."""

import itertools
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from flagseries.engine import rational_form, rational_form_lambda
from flagseries.forms import expand_dense
from flagseries.kernels import mul_trunc
from flagseries.partitions import (
    Partition,
    count_nested_flags,
    enum_partitions,
    nested_pair_counts,
)
from referees import (
    contains,
    enum_skew_classes,
    gap_numerator_by_lists,
    insertion_count,
    one_gap_numerators_by_lists,
    rp_count,
    skew_class_of_cells,
    sym_factor,
    transpose,
    truncated_ratio,
)

partitions = st.integers(0, 9).flatmap(
    lambda n: st.sampled_from(enum_partitions(n))
)


@given(partitions, partitions)
@settings(max_examples=80, deadline=None)
def test_containment_agrees_with_cell_sets(inner, outer):
    assert contains(inner, outer) == (inner.cells() <= outer.cells())


@given(partitions)
@settings(max_examples=50, deadline=None)
def test_conjugate_is_involution(p):
    assert p.conjugate().conjugate() == p
    assert p.conjugate().size == p.size


@given(partitions, partitions)
@settings(max_examples=60, deadline=None)
def test_skew_class_round_trip(inner, outer):
    if not contains(inner, outer) or inner.size == outer.size:
        return
    cells = outer.cells() - inner.cells()
    shape = skew_class_of_cells(cells)
    assert shape.size == outer.size - inner.size
    # translating every component leaves the class fixed
    shifted = {(x + 3, y + 5) for x, y in cells}
    assert skew_class_of_cells(shifted) == shape


@given(partitions, partitions)
@settings(max_examples=60, deadline=None)
def test_transpose_commutes_with_skew_difference(inner, outer):
    if not contains(inner, outer) or inner.size == outer.size:
        return
    direct = skew_class_of_cells(outer.cells() - inner.cells())
    flipped = skew_class_of_cells(
        outer.conjugate().cells() - inner.conjugate().cells()
    )
    assert transpose(direct) == flipped


@given(st.integers(0, 6), st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_nested_pair_counts_match_enumeration(max1, max2):
    assert nested_pair_counts(max1, max2) == {
        (a, b): count_nested_flags((a, b))
        for a in range(min(max1, max2) + 1)
        for b in range(a, max2 + 1)
    }


shapes_by_size = st.integers(1, 5).flatmap(
    lambda d: st.sampled_from(enum_skew_classes(d))
)


@given(shapes_by_size)
@settings(max_examples=40, deadline=None)
def test_sym_factor_transpose_invariant(shape):
    assert sym_factor(shape) == sym_factor(transpose(shape))


@given(shapes_by_size)
@settings(max_examples=30, deadline=None)
def test_ratio_constant_term_detects_straight_shapes(shape):
    ratio = rational_form_lambda(shape).expand(6)
    assert ratio[(0,)] == (1 if shape.is_straight() else 0)


# Shape classes of 7 to 9 boxes, past the exhaustive size <= 6 checks:
# outer minus inner with |outer| <= 9 and |outer| - |inner| >= 7.
large_skew_differences = partitions.filter(lambda outer: outer.size >= 7).flatmap(
    lambda outer: st.sampled_from(
        [
            inner
            for m in range(outer.size - 6)
            for inner in enum_partitions(m)
            if contains(inner, outer)
        ]
    ).map(lambda inner: skew_class_of_cells(outer.cells() - inner.cells()))
)


@given(large_skew_differences)
@settings(max_examples=60, deadline=None)
def test_single_shape_forms_match_referees_past_size_six(shape):
    rf = rational_form_lambda(shape)
    assert rf.expand(14) == truncated_ratio(shape, 14)
    series = rf.expand(4, z_power=1)
    for m in range(5):
        assert series[(m,)] == insertion_count(shape, m), (shape, m)


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(
        lambda k: 1 <= sum(k) <= 4
    )
)
@settings(max_examples=30, deadline=None)
def test_zero_gaps_are_transparent(gaps):
    base = rational_form(gaps).expand(10)
    assert rational_form([0] + gaps).expand(10) == base
    assert rational_form(gaps + [0]).expand(10) == base


@given(st.integers(0, 5), st.lists(st.integers(0, 5), max_size=4))
@settings(max_examples=30, deadline=None)
def test_fz_k_matches_flag_oracle(K, cuts):
    # gap vectors of total K <= 5, zero gaps included
    bounds = [0] + sorted(min(c, K) for c in cuts) + [K]
    k = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    series = rational_form(k).expand(4, z_power=1)
    for n in range(5):
        sizes = tuple(itertools.accumulate(k, initial=n))
        assert series[(n,)] == count_nested_flags(sizes), (k, n)


# P_d does not depend on the run's largest gap, so one list run serves all.
listed_one_gap_numerators = lru_cache(maxsize=None)(one_gap_numerators_by_lists)


@given(st.integers(1, 7), st.lists(st.integers(0, 7), max_size=6), st.integers(1, 14))
@settings(max_examples=20, deadline=None)
def test_gap_forms_match_the_list_recurrence(K, cuts, D):
    # gap vectors of total K <= 7, zero gaps included: one nonzero gap takes
    # the one-gap numerators, several the component run; and a gap D <= 14,
    # served by whichever numerator run the table holds
    bounds = [0] + sorted(min(c, K) for c in cuts) + [K]
    k = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    assert list(rational_form(k).numerator) == gap_numerator_by_lists(k), k
    expected = listed_one_gap_numerators(14)[D]
    assert rational_form((D,)).numerator == expected, D


def test_partition_series_power_factors_out_of_the_expansion():
    # punctual_nested_table expands Z^r once per table and multiplies each
    # diagonal's ratio expansion by it; truncated products are exact
    for r in range(1, 7):
        for D in range(9):
            form = rational_form((D,), r)
            for n in range(13):
                ratio = expand_dense(form.numerator, form.denominator, n)
                z_r = expand_dense([1], {}, n, r)
                expected = form.expand(n, z_power=r).dense()
                assert mul_trunc(ratio, z_r, n) == expected, (r, D, n)


def brute_force_fillings(shape, k):
    """Monotone fillings of ``shape`` with content ``k``, counted by trying
    every labelling of the boxes."""
    cells = [
        (c, x, y) for c, comp in enumerate(shape.components) for x, y in comp.cells()
    ]
    where = {cell: i for i, cell in enumerate(cells)}
    steps = [
        (where[c, x, y], where[nb])
        for c, x, y in cells
        for nb in ((c, x + 1, y), (c, x, y + 1))
        if nb in where
    ]
    return sum(
        all(labels[a] <= labels[b] for a, b in steps)
        and [labels.count(i) for i in range(len(k))] == list(k)
        for labels in itertools.product(range(len(k)), repeat=len(cells))
    )


@given(shapes_by_size, st.data())
@settings(max_examples=60, deadline=None)
def test_rp_count_matches_brute_force(shape, data):
    cuts = data.draw(st.lists(st.integers(0, shape.size), max_size=4))
    bounds = [0] + sorted(cuts) + [shape.size]
    k = tuple(b - a for a, b in zip(bounds, bounds[1:]))
    assert rp_count(shape, k) == brute_force_fillings(shape, k)
