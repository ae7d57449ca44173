import itertools
from collections import Counter
from functools import lru_cache, partial
from math import comb

import pytest

from flagseries import engine, kernels, quot
from flagseries.engine import (
    _one_gap_paths,
    _path_groups,
    rational_form,
    rational_form_lambda,
)
from flagseries.partitions import count_nested_flags, partition_count
from flagseries.series import QSeries, RationalForm, ps_mul, ps_pow
from flagseries.shapes import SkewShape, enum_connected_skew
import referees
from referees import (
    class_numerator_by_lists,
    class_sum_form_k,
    clear_denominator,
    component_paths_per_shape,
    enum_skew_classes,
    gap_numerator_by_lists,
    gap_steps_by_product,
    insertion_count,
    numerator_bound_by_run,
    one_gap_numerators_by_lists,
    rational_form_degree_bound,
    rational_form_k_degree_bound,
    rank_form_by_lists,
    rp_count,
    transpose,
    truncated_ratio,
)

BOX = SkewShape.of([(0, 1)])
H_DOMINO = SkewShape.of([(0, 2)])
TWO_BOXES = SkewShape.of([(0, 1)], [(0, 1)])


def expand_ratio(numerator, denominator, n):
    return RationalForm(numerator, denominator).expand(n)


def test_fz_lambda_single_box():
    series = rational_form_lambda(BOX).expand(4, z_power=1)
    assert series.dense() == [1, 2, 4, 7, 12]


def test_fz_lambda_horizontal_domino():
    series = rational_form_lambda(H_DOMINO).expand(4, z_power=1)
    assert series.dense() == [1, 1, 3, 4, 8]


def test_fz_lambda_two_boxes():
    n = 16
    z = rational_form(()).expand(n, z_power=1)
    expected = ps_mul(expand_ratio([0, 1], {1: 1, 2: 1}, n), z)
    assert rational_form_lambda(TWO_BOXES).expand(n, z_power=1) == expected


def test_fz_lambda_matches_insertion_oracle():
    for D in range(1, 5):
        for shape in enum_skew_classes(D):
            series = rational_form_lambda(shape).expand(8, z_power=1)
            for m in range(9):
                assert series[(m,)] == insertion_count(shape, m), shape


def test_fz_D_zero_is_partition_series():
    z = rational_form(()).expand(12, z_power=1)
    assert rational_form((0,)).expand(12, z_power=1) == z


def test_fz_D2_ratio():
    n = 24
    assert rational_form((2,)).expand(n) == expand_ratio([2, -1], {1: 1, 2: 1}, n)


def test_fz_D4_matches_flag_oracle():
    series = rational_form((4,)).expand(12, z_power=1)
    for n in range(13):
        assert series[(n,)] == count_nested_flags((n, n + 4))


def test_fz_k_single_step_consistency():
    for D in range(4):
        series = rational_form((D,)).expand(14, z_power=1)
        assert rational_form((0, D)).expand(14, z_power=1) == series
    counts = [partition_count(m) for m in range(11)]
    assert rational_form(()).expand(10, z_power=1).dense() == counts


def test_fz_k_one_one():
    n = 24
    z = rational_form(()).expand(n, z_power=1)
    expected = ps_mul(expand_ratio([2], {1: 1, 2: 1}, n), z)
    assert rational_form((1, 1)).expand(n, z_power=1) == expected


def test_fz_k_two_one():
    n = 24
    z = rational_form(()).expand(n, z_power=1)
    expected = ps_mul(expand_ratio([4, -1, 2, -2], {1: 1, 2: 1, 3: 1}, n), z)
    assert rational_form((2, 1)).expand(n, z_power=1) == expected


def test_rational_form_lambda_vertical_strip():
    for D in (2, 3, 4):
        strip = SkewShape.of([(0, 1)] * D)
        rf = rational_form_lambda(strip)
        assert rf.expand(30) == expand_ratio([1], {D: 1}, 30)


def test_rational_form_lambda_disjoint_boxes():
    for D in (2, 3, 4):
        shape = SkewShape.of(*([[(0, 1)]] * D))
        rf = rational_form_lambda(shape)
        assert rf.denominator == {j: 1 for j in range(1, D + 1)}
        expected = [0] * comb(D, 2) + [1]
        assert list(rf.numerator) == expected


def test_rational_form_lambda_single_box():
    rf = rational_form_lambda(BOX)
    assert list(rf.numerator) == [1]
    assert rf.denominator == {1: 1}


def test_rational_form_lambda_all_small_shapes():
    # the refined denominator for connected shapes and the full one for
    # disconnected shapes; each form re-expands to the truncated DP one
    # degree past its numerator degree plus its denominator degree, and the
    # public ratio is that expansion
    for D in range(1, 7):
        for shape in enum_skew_classes(D):
            rf = rational_form_lambda(shape)
            if shape.is_connected:
                path = shape.components[0].nw_path()
                lo = max(path.west_total, path.south_total)
                assert rf.denominator == {
                    i: 1 for i in range(lo, path.length)
                }, shape
            else:
                assert rf.denominator == {j: 1 for j in range(1, D + 1)}, shape
            den_deg = sum(j * e for j, e in rf.denominator.items())
            n = rf.numerator_degree + den_deg + 1
            assert rf.expand(n) == truncated_ratio(shape, n), shape
            assert rational_form_lambda(shape).expand(n) == rf.expand(n), shape


def test_rational_form_D_published_small():
    assert list(rational_form((1,)).numerator) == [1]
    assert list(rational_form((5,)).numerator) == [
        7, -3, -1, 1, -2, -5, 3, 1, -1, 2, -1,
    ]


def test_rational_form_k_simplified_display():
    # the canonical-denominator numerator re-expands to the simplified ratio
    rf = rational_form((1, 1, 1))
    assert rf.denominator == {1: 1, 2: 1, 3: 1}
    n = 40
    assert rf.expand(n) == expand_ratio([4, -2], {1: 2, 2: 1}, n)


def test_rational_form_k_one_two():
    rf = rational_form((1, 2))
    n = 40
    assert rf.expand(n) == expand_ratio([3, 2, -1, -1], {1: 1, 2: 1, 3: 1}, n)


def compositions(K):
    """Every composition of K into positive parts."""
    for r in range(K):
        for cuts in itertools.combinations(range(1, K), r):
            bounds = (0,) + cuts + (K,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def test_rational_form_k_equals_cleared_class_sum():
    # Referee for the exact multi-gap form: the filling-weighted sum of
    # truncated single-shape ratios, cleared over prod_{j<=K} (1 - q^j) at
    # rational_form_k_degree_bound(K) with ten trailing coefficients checked.
    gaps = [k for K in range(1, 6) for k in compositions(K)]
    gaps += [(0, 2, 1), (2, 0, 2), (1,) * 6, (1, 1, 1, 2, 2)]
    by_size = {}
    for k in gaps:
        by_size.setdefault(sum(k), []).append(k)
    for K, ks in by_size.items():
        bound = rational_form_k_degree_bound(K)
        n = bound + K * (K + 1) // 2 + 10
        ratios = [(s, truncated_ratio(s, n).dense()) for s in enum_skew_classes(K)]
        for k in ks:
            acc = [0] * (n + 1)
            for shape, ratio in ratios:
                w = rp_count(shape, k)
                for i, c in enumerate(ratio):
                    acc[i] += w * c
            ratio = QSeries.from_dense("q", acc, n)
            den = {j: 1 for j in range(1, K + 1)}
            assert rational_form(k) == clear_denominator(ratio, den, bound, 10), k


def test_rational_form_k_equals_class_sum_referee(monkeypatch):
    # Referees for the component run: the filling-weighted sum of exact class
    # numerators over every shape class of size K, and the list recurrence
    # over the same components.  Each class numerator is computed once and
    # shared by every gap vector of its size; each budget's components are
    # enumerated once for both recurrences.
    monkeypatch.setattr(
        referees, "_class_numerator", lru_cache(maxsize=None)(engine._class_numerator)
    )
    original, found = engine._component_paths, {}

    def shared(costs):
        key = frozenset(costs)
        if key not in found:
            found[key] = original(costs)
        return found[key]

    monkeypatch.setattr(engine, "_component_paths", shared)
    monkeypatch.setattr(referees, "_component_paths", shared)
    gaps = [k for K in range(1, 7) for k in compositions(K)]
    gaps += [(0, 2, 1), (2, 0, 2), (1, 0, 0, 2)]
    gaps += [(1,) * 7, (1, 1, 1, 2, 2), (2, 1, 1, 1, 2)]
    for k in gaps:
        rf = rational_form(k)
        assert rf == class_sum_form_k(k), k
        assert list(rf.numerator) == gap_numerator_by_lists(k), k


def test_component_paths_equal_per_shape_referee():
    # the orbit reuse of shapes.component_fillings against every shape
    # counting its own fillings; a cost's paths do not depend on the other
    # costs asked for, so the referee runs once over every cost
    budgets = [k for K in range(1, 8) for k in compositions(K)]
    budgets += [(3, 3, 3), (1,) * 8]
    every = {cost for b in budgets for cost, _ in engine._gap_steps(b)}
    expected = {cost: [] for cost in every}
    for path in component_paths_per_shape(every):
        expected[path[0]].append(path)
    for b in budgets:
        costs = {cost for cost, _ in engine._gap_steps(b)}
        paths = Counter(engine._component_paths(costs))
        assert paths == Counter(p for cost in costs for p in expected[cost]), b


def test_rational_form_k_is_one_recurrence_run(monkeypatch):
    runs = []
    rows = engine._numerator_rows

    def counted(*args):
        runs.append(args[1])
        return rows(*args)

    monkeypatch.setattr(engine, "_numerator_rows", counted)
    rational_form((1, 1, 2, 2))
    assert runs == [(1, 1, 2, 2)]


def test_one_entry_gap_vector_is_the_one_gap_form():
    for D in range(1, 11):
        rf = rational_form((D,))
        assert rational_form((0, D, 0)) == rf, D
        # the shortcut's premise: on a one-entry budget the component run,
        # every component with its single filling, gives the one-gap form
        paths = engine._component_paths({(s,) for s in range(1, D + 1)})
        rows = engine._counted_rows(paths, (D,), engine._gap_steps, {(D,): D})
        assert rows[D,] == list(rf.numerator), D


def test_transposition_invariance_up_to_size_six():
    n = 20
    for D in range(1, 7):
        for shape in enum_skew_classes(D):
            flipped = transpose(shape)
            assert truncated_ratio(shape, n) == truncated_ratio(flipped, n), shape


def test_ratio_value_laws_up_to_size_six():
    # over the full denominator prod_{j<=D}(1-q^j):
    # value at 0 detects straight shapes, value at 1 detects disjoint boxes
    for D in range(1, 7):
        bound = rational_form_degree_bound(D)
        n = bound + D * (D + 1) // 2 + 10
        for shape in enum_skew_classes(D):
            ratio = truncated_ratio(shape, n)
            rf = clear_denominator(ratio, {j: 1 for j in range(1, D + 1)}, bound)
            value0 = rf.numerator[0] if rf.numerator else 0
            assert value0 == (1 if shape.is_straight() else 0), shape
            value1 = sum(rf.numerator)
            assert value1 == (1 if shape.is_disjoint_boxes() else 0), shape


def test_degree_bounds():
    for D in range(1, 9):
        rf = rational_form((D,))
        assert rf.numerator_degree <= rational_form_degree_bound(D)
    for k in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 1, 1)):
        rf = rational_form(k)
        assert rf.numerator_degree <= rational_form_k_degree_bound(sum(k))


def test_special_values():
    for D in range(1, 9):
        rf = rational_form((D,))
        assert rf.numerator[0] == partition_count(D)
        assert sum(rf.numerator) == 1


def test_first_coefficient_laws():
    p = partition_count
    for D in range(1, 9):
        rf = rational_form((D,))
        num = list(rf.numerator) + [0] * 4
        assert num[1] == p(D + 1) - 2 * p(D)
        if D >= 2:
            assert num[2] == 2 * p(D + 2) - 2 * p(D + 1) - p(D) - 2
        if D >= 3:
            assert num[3] == (
                3 * p(D + 3) - 4 * p(D + 2) - p(D + 1) + 2 * p(D)
                - 2 - D - (D % 2)
            )


def per_class_sum(D, n, weight=lambda shape: 1):
    """Referee for the budget DP: the weighted sum of single-shape ratios."""
    acc = [0] * (n + 1)
    for shape in enum_skew_classes(D):
        w = weight(shape)
        for i, c in enumerate(truncated_ratio(shape, n).dense()):
            acc[i] += w * c
    return QSeries.from_dense("q", acc, n)


def test_fz_ratio_D_equals_per_class_sum():
    for D in range(1, 8):
        assert rational_form((D,)).expand(18) == per_class_sum(D, 18), D


def test_fz_ratio_k_equals_unpaired_per_class_sum():
    n = 18
    for k in ((1, 1), (2, 1), (1, 2, 1), (1, 1, 1, 1), (0, 2, 1), (2, 0, 2)):
        expected = per_class_sum(sum(k), n, lambda shape: rp_count(shape, k))
        assert rational_form(k).expand(n) == expected, k


def test_sliced_ratio_rows_match_referees():
    engine._one_gap_numerators(6)
    table = engine._numerators
    ratio = rational_form((3,)).expand(12)
    series = rational_form((3,)).expand(12, z_power=1)
    assert len(table) >= 7
    assert engine._numerators is table  # served from the larger run
    assert ratio == per_class_sum(3, 12)
    for n in range(13):
        assert series[(n,)] == count_nested_flags((n, n + 3))
    # a longer truncation expands the same cached numerators further
    assert rational_form((3,)).expand(40) == per_class_sum(3, 40)


def enumerated_groups(D):
    """Referee for the row DP: one-gap group terms of the enumerated
    components of every size <= D, as the truncated placement DP takes them."""
    groups = {}
    for s in range(1, D + 1):
        for comp in enum_connected_skew(s):
            engine._add_weight(groups, (s,), comp)
    return groups


def _trimmed(groups):
    out = {}
    for key, terms in groups.items():
        for t, poly in terms.items():
            poly = list(poly)
            while poly and not poly[-1]:
                poly.pop()
            if poly:
                out.setdefault(key, {})[t] = poly
    return out


def test_row_dp_groups_equal_enumerated_weights():
    expected = {}
    for key, terms in enumerated_groups(9).items():
        for (t, base), coef in terms.items():
            poly = expected.setdefault(key, {}).setdefault(t, [])
            poly.extend([0] * (base + 1 - len(poly)))
            poly[base] += coef
    # the groups at q = 2^bits, decoded with the slot the component counts
    # prove: every term of a (cost, L) group has l1 norm at most the sum of
    # count * 2^(L-1) over its components
    norms = Counter()
    for cost, L, _, _, count in _one_gap_paths(9, 0):
        norms[cost, L] += count << (L - 1)
    bits = kernels._signed_bits(max(norms.values()))
    decoded = {}
    for cost, by_t in _path_groups(_one_gap_paths(9, bits), bits).items():
        for t, terms in by_t.items():
            for L, value in terms.items():
                decoded.setdefault((cost, L), {})[t] = kernels._decode(value, bits)
    assert _trimmed(decoded) == _trimmed(expected)


def test_exact_numerators_equal_truncated_dp_referee():
    D = 10
    n = rational_form_degree_bound(D) + D * (D + 1) // 2 + 1
    table = engine._relative_dense(enumerated_groups(D), (D,), n)
    for d in range(1, D + 1):
        bound = rational_form_degree_bound(d)
        ratio = QSeries.from_dense("q", table[(d,)], n)
        den = {j: 1 for j in range(1, d + 1)}
        # every coefficient above the bound, up to n, must vanish
        guard = n - bound - d * (d + 1) // 2
        assert rational_form((d,)) == clear_denominator(ratio, den, bound, guard), d


def test_value_laws_beyond_the_published_tables():
    p = partition_count
    for D in range(14, 10, -1):
        rf = rational_form((D,))
        num = list(rf.numerator)
        assert num[0] == p(D), D
        assert sum(rf.numerator) == 1, D
        assert num[1] == p(D + 1) - 2 * p(D), D
        assert num[2] == 2 * p(D + 2) - 2 * p(D + 1) - p(D) - 2, D
        assert num[3] == (
            3 * p(D + 3) - 4 * p(D + 2) - p(D + 1) + 2 * p(D) - 2 - D - (D % 2)
        ), D


def test_rational_form_contract():
    # a zero vector is the form 1, whose series is Z^r
    n = 12
    z = QSeries.from_dense("q", [partition_count(m) for m in range(n + 1)])
    for r in (1, 2, 3):
        for zeros in ((), (0,), (0, 0)):
            rf = rational_form(zeros, r)
            assert rf == RationalForm((1,), {}), (zeros, r)
            assert rf.expand(n, z_power=r) == ps_pow(z, r), (zeros, r)
    # zero gaps are dropped
    assert rational_form((0, 2, 0, 1)) == rational_form((2, 1))
    # several nonzero gaps at a rank above 1, a negative gap and rank 0
    for k, r in (((1, 1), 2), ((-1, 2), 1), ((1,), 0)):
        with pytest.raises(ValueError):
            rational_form(k, r)
    # the alias kept for the benchmark is the public form, and keeps its
    # rule that rank and gap are positive
    for r in range(1, 6):
        for D in range(1, 11):
            assert quot.rational_form_rD(r, D) == rational_form((D,), r), (r, D)
    for r, D in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            quot.rational_form_rD(r, D)


def test_placement_weight_degree():
    from flagseries.engine import PlacementWeight

    for D in range(1, 6):
        for shape in enum_skew_classes(D):
            for comp in shape.components:
                w = PlacementWeight(comp)
                for j in (0, 1, 3):
                    exps = [j * tplus + base for tplus, base, _ in w.terms]
                    assert min(exps) == j * w.V + w.B


def test_packed_rank_form_equals_the_list_sum():
    # the largest gap first, so one numerator run serves the smaller ones;
    # each form is built from an emptied cache, then read back from it
    engine._rank_form.cache_clear()
    assert engine._rank_form(8, 20) == rank_form_by_lists(8, 20)
    pairs = [(r, D) for r in range(1, 9) for D in range(1, 15)]
    built = {pair: engine._rank_form(*pair) for pair in pairs}
    for pair in pairs:
        assert built[pair] == rank_form_by_lists(*pair), pair
        assert engine._rank_form(*pair) is built[pair], pair
    assert engine._rank_form.cache_info().misses == 1 + len(pairs)


@pytest.mark.parametrize("r, D", [(2, 5), (4, 8), (8, 12)])
def test_rank_form_slot_below_the_bound_decodes_wrongly(monkeypatch, r, D):
    # the uncached function, so each width builds its form and none is kept
    build = engine._rank_form.__wrapped__
    expected = rank_form_by_lists(r, D)
    need = max(abs(c) for c in expected.numerator).bit_length() + 1
    original = kernels._signed_bits
    widths = []

    def fixed(width):
        def slot_bits(bound):
            widths.append(original(bound))
            return width
        return slot_bits

    monkeypatch.setattr(kernels, "_signed_bits", fixed(need))
    assert build(r, D) == expected
    monkeypatch.setattr(kernels, "_signed_bits", fixed(need - 1))
    assert build(r, D) != expected
    assert min(widths) >= need


def test_one_gap_numerators_equal_the_list_recurrence(monkeypatch):
    # a fresh evaluated run for every D, each with its own proven slot
    expected = one_gap_numerators_by_lists(14)
    for D in range(1, 15):
        monkeypatch.setattr(engine, "_numerators", ())
        assert engine._one_gap_numerators(D) == expected[: D + 1], D


def test_disconnected_class_numerators_equal_the_list_recurrence():
    for D in range(2, 8):
        for shape in enum_skew_classes(D):
            if not shape.is_connected:
                expected = class_numerator_by_lists(shape)
                assert engine._class_numerator(shape) == expected, shape


def test_gap_steps_equal_the_product_form():
    budgets = [
        b for n in range(1, 6) for b in itertools.product(range(1, 4), repeat=n)
    ]
    for b in budgets + [(1,) * 10, (2,) * 5]:
        assert engine._gap_steps(b) == gap_steps_by_product(b), b


class _Sized(Exception):
    """Ends a recurrence run once its slot is sized."""


def test_numerator_slot_bound_equals_the_plus_run(monkeypatch):
    # the closed-form bound against the whole recurrence run on l1 norms,
    # each component's norms expanded by binomials in the referee; each run
    # ends once its slot is sized
    runs = []
    rows = engine._numerator_rows

    def recording(*args):
        runs.append(args)
        return rows(*args)

    def sized(bound):
        runs[-1] += (bound,)
        raise _Sized

    monkeypatch.setattr(engine, "_numerator_rows", recording)
    monkeypatch.setattr(kernels, "_signed_bits", sized)
    forms = [partial(rational_form, k) for K in range(1, 7) for k in compositions(K)]
    forms += [partial(rational_form, (D,)) for D in range(7, 15)]
    forms += [partial(rational_form, k) for k in ((1, 1, 1, 2, 2), (2, 1, 1, 1, 2))]
    forms += [
        partial(rational_form_lambda, shape)
        for D in range(2, 8)
        for shape in enum_skew_classes(D)
        if not shape.is_connected
    ]
    for form in forms:
        monkeypatch.setattr(engine, "_numerators", ())
        with pytest.raises(_Sized):
            form()
    assert len(runs) == len(forms)
    for paths, budget, steps, tops, _, bound in runs:
        assert bound == numerator_bound_by_run(paths, budget, steps, tops), budget


def test_one_gap_count_dp_norms_equal_the_component_counts():
    # the referee sums count * 2^(L-1) over the true components at bits 0
    for D in range(1, 15):
        norms = Counter()
        for cost, L, _, _, count in _one_gap_paths(D, 0):
            norms[cost] += count << (L - 1)
        assert engine._one_gap_norms(D) == norms, D


def test_one_gap_run_lists_its_components_once_at_the_slot_width(monkeypatch):
    # the count DP sizes the slot, so the row DP never runs at bits 0
    calls, widths = [], []
    paths, signed_bits = engine._one_gap_paths, kernels._signed_bits

    def recorded(D, bits):
        calls.append((D, bits))
        return paths(D, bits)

    def sized(bound):
        widths.append(signed_bits(bound))
        return widths[-1]

    monkeypatch.setattr(engine, "_one_gap_paths", recorded)
    monkeypatch.setattr(kernels, "_signed_bits", sized)
    monkeypatch.setattr(engine, "_numerators", ())
    engine._one_gap_numerators(12)
    assert len(widths) == 1
    assert calls == [(12, widths[0])]


SPREAD = SkewShape.of([(0, 1)], [(0, 1)], [(0, 1)], [(0, 1), (0, 1)], [(0, 2)])


@pytest.mark.parametrize(
    "form",
    [
        lambda: engine._one_gap_numerators(12),
        lambda: rational_form((1, 1, 2, 2)),
        lambda: rational_form_lambda(SPREAD),
    ],
    ids=["one gap", "multi gap", "single shape"],
)
def test_recurrence_run_builds_its_group_terms_once(monkeypatch, form):
    # the slot bound reads the component counts, not a second group build
    builds = []
    build = engine._path_groups

    def counted(*args):
        builds.append(args[1:])
        return build(*args)

    monkeypatch.setattr(engine, "_path_groups", counted)
    monkeypatch.setattr(engine, "_numerators", ())
    form()
    assert len(builds) == 1, builds


@pytest.mark.parametrize(
    "form, referee",
    [
        (lambda: rational_form((12,)), lambda: one_gap_numerators_by_lists(12)[12]),
        (lambda: rational_form((1, 1, 2, 2)), lambda: gap_numerator_by_lists((1, 1, 2, 2))),
        (lambda: rational_form_lambda(SPREAD), lambda: class_numerator_by_lists(SPREAD)),
    ],
    ids=["one gap", "multi gap", "single shape"],
)
def test_numerator_slot_below_the_bound_decodes_wrongly(monkeypatch, form, referee):
    # the numerator table is emptied, so each form runs the recurrence anew
    expected = list(referee())
    need = max(abs(c) for c in expected).bit_length() + 1
    original = kernels._signed_bits
    widths = []

    def fixed(width):
        def slot_bits(bound):
            widths.append(original(bound))
            return width
        return slot_bits

    for width, decodes in ((need, True), (need - 1, False)):
        monkeypatch.setattr(kernels, "_signed_bits", fixed(width))
        monkeypatch.setattr(engine, "_numerators", ())
        assert (list(form().numerator) == expected) is decodes, width
    assert min(widths) >= need
