"""Contract of the package's immutable records: the repr, equality, hash,
order and validation that sets, dicts, sorted outputs and error messages
rely on."""

import pytest

from flagseries.engine import rational_form
from flagseries.forms import RationalForm
from flagseries.motives import (
    HSVector,
    LPoly,
    StrataMotives,
    a_coefficients,
    component_count,
)
from flagseries.partitions import FlagSpec, Partition, count_nested_flags
from flagseries.series import QSeries
from flagseries.shapes import ConnectedSkew, NWPath, SkewShape, filling_counts
from flagseries.surfaces import SurfaceProfile, punctual_nested_table

STAIR = ((1, 1), (0, 2))
DOMINO = ((0, 2),)


def records():
    """(record, an equal record built from other inputs, its fields)."""
    p, q = LPoly((1, 1)), LPoly((0, 2))
    return [
        (ConnectedSkew(STAIR), ConnectedSkew([[1, 1], [0, 2]]), (STAIR,)),
        (NWPath((1, 1), (1, 1)), NWPath((1, 1), (1, 1)), ((1, 1), (1, 1))),
        (
            SkewShape.of(STAIR, DOMINO),
            SkewShape((ConnectedSkew(STAIR), ConnectedSkew(DOMINO))),
            ((ConnectedSkew(DOMINO), ConnectedSkew(STAIR)),),
        ),
        (
            StrataMotives(p, q, p, (q, p), q),
            StrataMotives(LPoly((1, 1)), q, p, (q, p), q),
            (p, q, p, (q, p), q),
        ),
        (HSVector((1, 2, 1)), HSVector([1, 2, 1]), ((1, 2, 1),)),
        (
            SurfaceProfile("K3", 24),
            SurfaceProfile(name="K3", euler_characteristic=24),
            ("K3", 24),
        ),
    ]


def test_reprs_are_pinned():
    reprs = [repr(record) for record, _, _ in records()]
    assert reprs == [
        "ConnectedSkew(rows=((1, 1), (0, 2)))",
        "NWPath(ells=(1, 1), vees=(1, 1))",
        "SkewShape(components=(ConnectedSkew(rows=((0, 2),)), "
        "ConnectedSkew(rows=((1, 1), (0, 2)))))",
        "StrataMotives(curvilinear=LPoly(L + 1), h1=LPoly(2*L), "
        "h2=LPoly(L + 1), h2_split=(LPoly(2*L), LPoly(L + 1)), h3=LPoly(2*L))",
        "HSVector(values=(1, 2, 1))",
        "SurfaceProfile(name='K3', euler_characteristic=24)",
    ]


@pytest.mark.parametrize("index", range(6))
def test_equal_fields_give_equal_records_and_hashes(index):
    record, twin, fields = records()[index]
    assert record == twin
    assert not record != twin
    assert hash(record) == hash(twin) == hash(fields)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("index", range(6))
def test_records_reject_assignment(index):
    record, _, _ = records()[index]
    first = repr(record).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_inputs_are_normalised():
    assert ConnectedSkew([[1, 1], [0, 2]]).rows == STAIR
    assert type(ConnectedSkew([[0, 2]]).rows[0]) is tuple
    assert HSVector([1, 2, 1]).values == (1, 2, 1)
    shape = SkewShape.of(STAIR, DOMINO)
    assert shape.components == (ConnectedSkew(DOMINO), ConnectedSkew(STAIR))
    assert shape == SkewShape.of(DOMINO, STAIR)


def test_shapes_order_by_size_then_rows():
    small = ConnectedSkew(DOMINO)
    tall = ConnectedSkew(((0, 1), (0, 1), (0, 1)))
    assert small < tall and tall > small
    assert not tall < small and not small > tall
    assert sorted([tall, small]) == [small, tall]
    one, two = SkewShape.of(DOMINO), SkewShape.of(((0, 1), (0, 1), (0, 1)))
    assert one < two and two > one
    assert sorted([two, one]) == [one, two]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ConnectedSkew(()), "at least one row"),
        (lambda: ConnectedSkew(((0, 0),)), "start >= 0 and length >= 1"),
        (lambda: ConnectedSkew(((-1, 1),)), "start >= 0 and length >= 1"),
        (lambda: ConnectedSkew(((1, 1),)), "minimal start to 0"),
        (lambda: ConnectedSkew(((0, 1), (1, 1))), "starts must weakly decrease"),
        (lambda: ConnectedSkew(((0, 1), (0, 2))), "right ends must weakly decrease"),
        (lambda: ConnectedSkew(((2, 1), (0, 1))), "share a column"),
        (lambda: NWPath((1,), ()), "matching nonempty"),
        (lambda: NWPath((), ()), "matching nonempty"),
        (lambda: NWPath((1, 0), (1, 1)), "run lengths are >= 1"),
        (lambda: SkewShape(()), "at least one box"),
        (lambda: HSVector(()), "starts with 1"),
        (lambda: HSVector((2, 1)), "starts with 1"),
        (lambda: HSVector((1, 2, 0)), "positive"),
        (lambda: HSVector((1, 1, 2)), "weakly decrease past the staircase"),
        (lambda: HSVector((1, 3)), "never exceed the staircase"),
        (lambda: SurfaceProfile("x", -1), "nonnegative Euler"),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


NON_INTEGER_INPUTS = {
    "gap-float": lambda: rational_form((2.9, 0.5)),
    "gap-str": lambda: rational_form(("3",)),
    "rank-float": lambda: rational_form((2,), 1.0),
    "partition": lambda: Partition((2.0, 1)),
    "flagspec": lambda: FlagSpec((1, 2.5)),
    "nesting": lambda: count_nested_flags((1.7, 3)),
    "truncation": lambda: QSeries(("q",), (2.5,), {}),
    "exponent": lambda: QSeries(("q",), (3,), {(1.0,): 1}),
    "denominator-j": lambda: RationalForm((1,), {1.5: 1}),
    "denominator-e": lambda: RationalForm((1,), {1: 2.0}),
    "skew-row": lambda: ConnectedSkew(((0, 2.0),)),
    "filling-cost": lambda: filling_counts(SkewShape.of(DOMINO), [(1.0, 1)]),
    "hs-vector": lambda: HSVector((1, 2.0)),
    "euler-characteristic": lambda: SurfaceProfile("x", 2.5),
    # after a warm int call, so an equal float key must not hit its entry
    "table-size": lambda: (punctual_nested_table(2, 2, 4),
                           punctual_nested_table(2.0, 2, 4)),
    "a-coefficients": lambda: a_coefficients(6.0),
    "component-count": lambda: component_count("3n", 5.0),
}


@pytest.mark.parametrize("build", NON_INTEGER_INPUTS.values(), ids=NON_INTEGER_INPUTS)
def test_non_integer_inputs_raise_type_error(build):
    # an exact engine must not round a float or parse a string it was handed
    with pytest.raises(TypeError):
        build()
