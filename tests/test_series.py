import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagseries import kernels
from flagseries.engine import rational_form
from flagseries.motives import LEFSCHETZ as L
from flagseries.motives import LPoly, projective_space
from flagseries.partitions import nested_pair_counts, partition_count
from flagseries.series import (
    QSeries,
    RationalForm,
    ps_add,
    ps_mul,
    ps_pow,
)
from referees import RationalityError, clear_denominator, ps_inv, ps_mul_by_rows


def q(coeffs, trunc=None):
    return QSeries.from_dense("q", coeffs, trunc)


def term_convolution(a, b):
    """Referee product: every pair of terms, kept when inside the minimum
    truncation."""
    trunc = tuple(min(x, y) for x, y in zip(a.truncation, b.truncation))
    out = {}
    for ea, ca in a.coefficients.items():
        for eb, cb in b.coefficients.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if all(x <= t for x, t in zip(e, trunc)):
                out[e] = out.get(e, 0) + ca * cb
    return QSeries(a.variables, trunc, out)


def test_add_cancellation():
    assert ps_add(q([1, 1]), q([1, -1])) == q([2, 0])


def test_add_identity():
    z = rational_form(()).expand(10, z_power=1)
    assert ps_add(z, QSeries.zero(("q",), (10,))) == z


def test_add_variable_mismatch():
    a = QSeries.one(("q",), (4,))
    b = QSeries.one(("s",), (4,))
    with pytest.raises(ValueError):
        ps_add(a, b)


def test_mul_difference_of_squares():
    assert ps_mul(q([1, 1], 4), q([1, -1], 4)) == q([1, 0, -1], 4)


def test_mul_truncates_to_minimum():
    a = q([1, 1], 6)
    b = q([1, 1], 3)
    assert ps_mul(a, b).truncation == (3,)


def test_z_cubed_prefix():
    # hand convolution of the partition series cube
    z = rational_form(()).expand(3, z_power=1)
    cube = ps_pow(z, 3)
    assert cube.dense() == [1, 3, 9, 22]


def test_inv_geometric():
    inv = ps_inv(q([1, -1], 6))
    assert inv.dense() == [1] * 7


def test_inv_euler_product_gives_partition_counts():
    n = 60
    euler = [0] * (n + 1)
    euler[0] = 1
    prod = QSeries.one(("q",), (n,))
    for j in range(1, n + 1):
        factor = [1] + [0] * (j - 1) + [-1]
        prod = ps_mul(prod, q(factor, n))
    z = ps_inv(prod)
    assert z.dense() == [partition_count(m) for m in range(n + 1)]


def test_inv_requires_unit():
    with pytest.raises(ValueError):
        ps_inv(q([2, 1], 4))


def test_pow_edge_cases():
    z = rational_form(()).expand(6, z_power=1)
    assert ps_pow(z, 0) == QSeries.one(("q",), (6,))
    assert ps_pow(z, 1) == z
    sq = ps_pow(z, 2)
    assert sq[(2,)] == 5  # p(0)p(2) + p(1)p(1) + p(2)p(0)
    t = QSeries(("q1", "q2"), (2, 4), {(0, 0): 1, (0, 1): 1, (1, 1): 2, (1, 3): -1})
    one = QSeries.one(("q1", "q2"), (2, 4))
    assert ps_pow(t, 0) == one
    assert ps_pow(t, 1) == t
    power = one
    for e in range(1, 7):
        power = term_convolution(power, t)
        assert ps_pow(t, e) == power


small_series = st.builds(
    lambda pairs: QSeries(("q",), (8,), {(e,): c for e, c in pairs}),
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(-9, 9)), max_size=6
    ),
)


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert ps_mul(ps_mul(a, b), c) == ps_mul(a, ps_mul(b, c))
    assert ps_mul(a, ps_add(b, c)) == ps_add(ps_mul(a, b), ps_mul(a, c))
    assert ps_add(a, b) == ps_add(b, a)


unit_series = st.builds(
    lambda c0, pairs: QSeries(
        ("q",), (8,), {**{(e,): c for e, c in pairs}, (0,): c0}
    ),
    st.sampled_from([1, -1]),
    st.lists(st.tuples(st.integers(1, 8), st.integers(-9, 9)), max_size=6),
)


@given(unit_series)
@settings(max_examples=60, deadline=None)
def test_inv_involution_and_product(a):
    inv = ps_inv(a)
    assert ps_inv(inv) == a
    assert ps_mul(a, inv) == QSeries.one(("q",), (8,))


VARIABLES = {1: ("q",), 2: ("q", "s"), 3: ("q", "s", "v")}


@st.composite
def sampled_series(draw, nvars, constant=None):
    """A series in one to three variables (one variable is a single dense
    row); exponents up to 6 also reach past its own truncation, and
    ``constant`` fixes the constant term."""
    trunc = draw(st.tuples(*[st.integers(0, 4)] * nvars))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * nvars), st.integers(-9, 9), max_size=8
    ))
    if constant is not None:
        terms[(0,) * nvars] = draw(constant)
    return QSeries(VARIABLES[nvars], trunc, terms)


@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda k: st.tuples(sampled_series(k), sampled_series(k))
))
@settings(max_examples=150, deadline=None)
def test_multivariate_mul_matches_term_convolution(pair):
    a, b = pair
    product = ps_mul(a, b)
    assert product == term_convolution(a, b)
    assert product.truncation == tuple(map(min, a.truncation, b.truncation))
    assert ps_mul(b, a) == product


def big_series(rng, nvars, truncation, rows, zero_rows=0):
    """A series whose coefficients reach past 2^64 in both signs: ``rows``
    random rows, each with a random share of zero slots, and ``zero_rows``
    more all-zero rows that the constructor drops."""
    lead = [range(t + 1) for t in truncation[:-1]]
    keys = rng.sample(list(itertools.product(*lead)), rows + zero_rows)
    width = truncation[-1] + 1
    out = {key: [0] * width for key in keys[rows:]}
    for key in keys[:rows]:
        out[key] = [
            rng.choice((-1, 1)) * rng.getrandbits(rng.choice((3, 40, 90)))
            if rng.random() < 0.7 else 0
            for _ in range(width)
        ]
    return QSeries.from_rows(VARIABLES[nvars], truncation, out)


def packed_product_cases():
    """Operand pairs for the packed product: one to three variables,
    coefficients past 2^64 of both signs, zero operands and dropped zero
    rows, rows longer than the product's truncation, truncations that
    differ in every variable, and factors whose product cancels."""
    rng = random.Random(27)
    cases = []
    for nvars in (1, 2, 3):
        small, large = (3,) * (nvars - 1) + (6,), (4,) * (nvars - 1) + (11,)
        rows = 2 * nvars - 1
        for ta, tb in ((small, small), (small, large), (large, small)):
            a = big_series(rng, nvars, ta, rows, zero_rows=min(nvars - 1, 1))
            b = big_series(rng, nvars, tb, rows)
            cases.append((a, b))
            cases.append((a, QSeries.zero(a.variables, tb)))
            cases.append((a - b, a + b))
        one = QSeries.one(VARIABLES[nvars], small)
        x = QSeries.monomial(VARIABLES[nvars], small, (1,) * nvars)
        cases.append((one + x * (1 << 70), one - x * (1 << 70)))
    return cases


def test_packed_product_equals_the_row_kernels():
    for a, b in packed_product_cases():
        product = ps_mul(a, b)
        assert product == ps_mul_by_rows(a, b) == term_convolution(a, b)
        assert ps_mul(b, a) == product


def test_power_of_the_pair_table_equals_repeated_row_products():
    table = QSeries(("q1", "q2"), (8, 16), nested_pair_counts(8, 16))
    expected = table
    for _ in range(11):
        expected = ps_mul_by_rows(expected, table)
    assert ps_pow(table, 12) == expected


def signed_width(c):
    """Bits of the narrowest two's-complement slot that holds c."""
    return (c if c >= 0 else ~c).bit_length() + 1


def test_product_slot_below_the_bound_decodes_wrongly(monkeypatch):
    rng = random.Random(28)
    a = big_series(rng, 2, (3, 6), 3)
    b = big_series(rng, 2, (4, 11), 3)
    expected = ps_mul_by_rows(a, b)
    need = max(signed_width(c) for c in expected.coefficients.values())
    original = kernels._signed_bits
    widths = []

    def narrowed(bound):
        widths.append(original(bound))
        return need - 1

    monkeypatch.setattr(kernels, "_signed_bits", narrowed)
    assert ps_mul(a, b) != expected
    assert widths and min(widths) >= need


@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda k: sampled_series(k, constant=st.sampled_from([1, -1]))
))
@settings(max_examples=100, deadline=None)
def test_multivariate_inverse_matches_term_convolution(a):
    inv = ps_inv(a)
    assert inv.truncation == a.truncation
    assert term_convolution(a, inv) == QSeries.one(a.variables, a.truncation)
    assert ps_inv(inv) == a


@given(st.sampled_from([1, 2, 3]).flatmap(
    lambda k: sampled_series(
        k, constant=st.integers(-9, 9).filter(lambda c: c not in (1, -1))
    )
))
@settings(max_examples=30, deadline=None)
def test_multivariate_inverse_requires_unit(a):
    with pytest.raises(ValueError, match="unit"):
        ps_inv(a)


def assert_row_invariant(a):
    """Every stored row is dense to the last truncation and nonzero, and
    the zero difference, the dict constructor and ``from_rows`` agree."""
    for row in a.rows.values():
        assert len(row) == a.truncation[-1] + 1
        assert any(row)
    zero = a - a
    assert zero == QSeries.zero(a.variables, a.truncation)
    assert zero.rows == {}
    assert QSeries(a.variables, a.truncation, a.coefficients) == a
    assert QSeries.from_rows(a.variables, a.truncation, a.rows) == a


def untidy_rows(a):
    """The rows of ``a`` without their trailing zeros, or with a tail past
    the truncation when they have none, plus a short zero row and, with
    leading variables, a key past their truncation: ``from_rows`` pads,
    cuts or drops each of them."""
    lead = a.truncation[:-1]
    rows = {}
    for key, row in a.rows.items():
        while not row[-1]:
            row = row[:-1]
        rows[key] = row + [7] if len(row) == a.truncation[-1] + 1 else row
    rows.setdefault(lead, [0])
    if lead:
        rows[tuple(t + 1 for t in lead)] = [1]
    return rows


@given(st.sampled_from([1, 2, 3]).flatmap(lambda k: st.tuples(
    sampled_series(k),
    sampled_series(k),
    sampled_series(k, constant=st.sampled_from([1, -1])),
    st.integers(-3, 3),
    st.integers(0, 3),
)))
@settings(max_examples=100, deadline=None)
def test_row_invariant_after_every_constructor(case):
    a, b, unit, c, e = case
    rebuilt = QSeries.from_rows(a.variables, a.truncation, untidy_rows(a))
    assert rebuilt == a
    for series in (
        a, rebuilt, ps_add(a, b), a * c, ps_mul(a, b), ps_inv(unit), ps_pow(a, e)
    ):
        assert_row_invariant(series)


def test_multivariate_inverse():
    one = QSeries.one(("q", "s"), (6, 3))
    z = rational_form(()).expand(6, z_power=1)
    sz = QSeries(("q", "s"), (6, 3), {(e, 1): c for e, c in enumerate(z.dense())})
    inv = ps_inv(one - sz)
    assert ps_mul(one - sz, inv) == one


def test_clear_denominator_simple():
    # 1 / (1 - q)
    series = q([1] * 30, 29)
    rf = clear_denominator(series, {1: 1}, 0, guard=10)
    assert list(rf.numerator) == [1]
    assert rf.denominator == {1: 1}


def test_clear_denominator_constant():
    series = q([1] + [0] * 20, 20)
    rf = clear_denominator(series, {}, 0, guard=10)
    assert list(rf.numerator) == [1]
    assert rf.denominator == {}


def test_clear_denominator_guard_failure():
    z = rational_form(()).expand(40, z_power=1)
    with pytest.raises(RationalityError):
        clear_denominator(z, {1: 1}, 5, guard=10)


def test_clear_denominator_requires_positive_guard():
    # a guard of -3 left the checked range empty and accepted a false form
    z = rational_form(()).expand(5, z_power=1)
    for guard in (-3, 0):
        with pytest.raises(ValueError, match="guard"):
            clear_denominator(z, {1: 1, 2: 1}, 5, guard)


@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=6),
    st.dictionaries(st.integers(1, 4), st.integers(1, 2), max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_clear_denominator_round_trip(num, den):
    rf = RationalForm(num, den)
    n = 40
    series = rf.expand(n)
    max_deg = max(5, len(num) - 1)
    back = clear_denominator(series, den, max_deg, guard=10)
    assert back.expand(n) == series


def test_expand_with_a_power_of_z():
    # Z^r as extra denominator passes against the product with the r-th
    # power of the partition series.
    rf = RationalForm([3, -1, -1], {1: 1, 2: 1, 3: 1})
    n = 20
    z = rational_form(()).expand(n, z_power=1)
    for r in range(4):
        assert rf.expand(n, z_power=r) == ps_mul(rf.expand(n), ps_pow(z, r)), r
    with pytest.raises(ValueError, match="nonnegative"):
        rf.expand(n, z_power=-1)


def test_rational_form_json_round_trip():
    rf = RationalForm([3, -1, -1], {3: 1, 1: 1, 2: 1})
    assert rf.to_json_dict() == {
        "numerator": [3, -1, -1],
        "denominator": [[1, 1], [2, 1], [3, 1]],
    }


def test_lpoly_eval_examples():
    assert LPoly((1, 2, 3, 2))(1) == 8
    assert projective_space(2)(1) == 3
    assert (LPoly((1, 2, 2)) * (1 + L))(1) == 10


def test_lpoly_arithmetic():
    p = (1 + L) ** 2
    assert p == LPoly((1, 2, 1))
    assert (p - p).is_zero()
    assert p.degree == 2
    assert p.leading_coefficient == 1
    assert p.to_json_list() == ["1", "2", "1"]
    assert LPoly().to_json_list() == []


def test_lpoly_iterates_over_its_coefficients():
    p = LPoly((1, 2))
    assert list(itertools.islice(iter(p), 5)) == [1, 2]
    assert LPoly(p) == p
    assert 2 in p and 0 not in p


def test_qseries_is_not_iterable():
    # indexing returns 0 past the truncation, so iteration would not end
    with pytest.raises(TypeError):
        iter(rational_form(()).expand(2, z_power=1))


def test_constant_lpoly_hashes_as_its_int():
    assert hash(LPoly((3,))) == hash(3)
    assert hash(LPoly()) == hash(0)
    assert {3: "x"}[LPoly((3,))] == "x"
    assert len({LPoly((3,)), 3}) == 1


def test_lpoly_rejects_floats():
    with pytest.raises(TypeError):
        LPoly((1.5,))


def test_qseries_validation():
    with pytest.raises(ValueError):
        QSeries(("w",), (4,), {})  # unknown variable name
    with pytest.raises(ValueError):
        QSeries(("q", "q"), (4, 4), {})  # duplicate names
    with pytest.raises(ValueError):
        QSeries(("q",), (-1,), {})
    with pytest.raises(ValueError):
        QSeries(("q",), (4,), {(1, 1): 1})  # arity mismatch
    with pytest.raises(TypeError):
        QSeries(("q",), (4,), {(1,): 0.5})


def test_qseries_index_arity_must_match_variables():
    # a short or long exponent tuple is a bug in the caller, not a zero term
    table = QSeries(("q1", "q2"), (2, 3), {(1, 2): 5})
    assert table[(1, 2)] == 5 and table[(2, 3)] == 0
    one = QSeries.from_dense("q", [1, 2, 3])
    assert one[1] == one[(1,)] == 2
    for series, exponents in ((table, 1), (table, (1,)), (table, (1, 2, 0)),
                              (one, (0, 1)), (one, ())):
        with pytest.raises(IndexError, match="arity"):
            series[exponents]


def test_from_rows_key_arity_must_match_leading_variables():
    # each row is keyed by the exponents of every variable but the last
    for key in ((), (1, 0)):
        with pytest.raises(ValueError, match="row key arity"):
            QSeries.from_rows(("s", "q"), (2, 3), {key: [1]})
    with pytest.raises(ValueError, match="row key arity"):
        QSeries.from_rows(("q",), (3,), {(0,): [1]})
    series = QSeries.from_rows(("s", "q"), (2, 3), {(1,): [1]})
    assert series.coefficients == {(1, 0): 1}


def test_qseries_drops_out_of_range_terms():
    s = QSeries.monomial(("q",), (4,), (9,))
    assert s.is_zero()


def test_qseries_immutable():
    s = QSeries.one(("q",), (4,))
    with pytest.raises(AttributeError):
        s.truncation = (2,)
