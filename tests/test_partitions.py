import itertools
from functools import lru_cache

import pytest

from flagseries import kernels, partitions
from flagseries.partitions import (
    FlagSpec,
    Partition,
    coloured_flag_counts,
    count_coloured_flags,
    count_nested_flags,
    enum_partitions,
    nested_pair_counts,
    partition_count,
)
from flagseries.shapes import SkewShape
from referees import (
    contains,
    count_partitions_with_k_parts,
    enum_skew_classes,
    filtered_nested_flags,
    insertion_count,
    nested_pair_counts_by_lists,
)


def test_partition_validation():
    p = Partition((4, 3, 3, 1, 1))
    assert p.size == 12
    assert p.num_parts == 5
    assert p.multiplicities() == {4: 1, 3: 2, 1: 2}
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_flagspec_validation():
    assert FlagSpec((0, 2, 2)) == (0, 2, 2)
    with pytest.raises(ValueError):
        FlagSpec((3, 2))
    with pytest.raises(ValueError):
        FlagSpec((-1, 2))


def test_enum_partitions_small():
    assert enum_partitions(0) == (Partition(()),)
    assert len(enum_partitions(4)) == 5
    assert len(enum_partitions(10)) == 42
    # reverse-lexicographic order
    assert [tuple(p) for p in enum_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
    ]


def test_enum_matches_euler_product():
    for n in range(61):
        assert len(enum_partitions(min(n, 30))) == partition_count(min(n, 30))
    assert partition_count(60) == 966467


def test_count_with_k_parts():
    assert count_partitions_with_k_parts(6, 2) == 3
    assert count_partitions_with_k_parts(7, 3) == 4
    assert count_partitions_with_k_parts(0, 0) == 1
    assert count_partitions_with_k_parts(5, 0) == 0
    for n in range(15):
        assert sum(
            count_partitions_with_k_parts(n, k) for k in range(n + 1)
        ) == partition_count(n)


def test_contains():
    assert contains((1,), (2, 1))
    assert not contains((2,), (1, 1))
    assert contains((3, 1), (4, 3, 3, 1, 1))


def test_count_nested_flags_examples():
    assert count_nested_flags((2, 4)) == 8
    assert count_nested_flags((1, 3)) == 3
    assert count_nested_flags((2, 3, 4)) == 10
    assert count_nested_flags(()) == 1


def test_count_nested_flags_degenerate():
    for n in range(9):
        assert count_nested_flags((n,)) == partition_count(n)
        assert count_nested_flags((n, n)) == partition_count(n)


def test_bitset_count_equals_the_filter_referee():
    # every spec of length <= 3 with top size <= 10
    specs = [()] + [
        spec
        for length in (1, 2, 3)
        for spec in itertools.combinations_with_replacement(range(11), length)
    ]
    for spec in specs:
        assert count_nested_flags(spec) == filtered_nested_flags(spec), spec


def test_count_coloured_flags_examples():
    for spec in ((2, 4), (1, 3), (0, 2, 5)):
        assert count_coloured_flags(1, spec) == count_nested_flags(spec)
    assert count_coloured_flags(2, (2,)) == 5
    assert count_coloured_flags(2, (0, 1)) == 2


@lru_cache(maxsize=None)
def direct_coloured(r, spec):
    """Coloured count of a size pair as a direct sum over ordered
    splittings into r size pairs: the first pair of the splitting, times
    the splittings of the rest into r - 1 pairs."""
    if r == 0:
        return int(spec == (0, 0))
    return sum(
        count_nested_flags((a, b)) * direct_coloured(r - 1, (spec[0] - a, spec[1] - b))
        for a in range(spec[0] + 1)
        for b in range(a, spec[1] + 1)
    )


def test_count_coloured_flags_relabelling_symmetry():
    # the convolution is independent of how the splitting is ordered:
    # check against a direct sum over ordered splittings for small cases
    for r in (2, 3):
        for spec in ((1, 2), (2, 3), (0, 2)):
            assert count_coloured_flags(r, spec) == direct_coloured(r, spec)


def test_coloured_flag_counts_hold_the_whole_box():
    for r in (1, 2, 3):
        for box in ((0, 0), (1, 3), (2, 2), (2, 4)):
            table = coloured_flag_counts(r, box)
            assert table == {
                (a, b): direct_coloured(r, (a, b))
                for a in range(box[0] + 1)
                for b in range(a, box[1] + 1)
            }, (r, box)
            assert count_coloured_flags(r, box) == table[box]
    assert coloured_flag_counts(2, ()) == {(): 1}
    with pytest.raises(ValueError):
        coloured_flag_counts(0, (1, 2))


@pytest.mark.parametrize("ranks", [(1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3, 3)])
def test_colouring_tower_matches_the_direct_sum_in_any_order(ranks):
    # each box keeps its last table and grows it, or starts over below it
    partitions._coloured_tops.clear()
    boxes = [(a, b) for b in range(7) for a in range(min(b, 2) + 1)]
    for r in ranks:
        for box in boxes:
            assert coloured_flag_counts(r, box) == {
                (a, b): direct_coloured(r, (a, b))
                for a in range(box[0] + 1)
                for b in range(a, box[1] + 1)
            }, (r, box)


def test_editing_a_returned_table_changes_no_later_call():
    expected = coloured_flag_counts(2, (2, 4))
    table = coloured_flag_counts(2, (2, 4))
    table[(2, 4)] += 1
    del table[(0, 0)]
    assert coloured_flag_counts(2, (2, 4)) == expected
    assert count_coloured_flags(2, (2, 4)) == expected[(2, 4)]
    assert count_coloured_flags(3, (2, 4)) == direct_coloured(3, (2, 4))


def test_nested_pair_counts_match_enumeration():
    for max1, max2 in ((8, 16), (0, 0), (0, 5), (3, 3), (5, 2)):
        assert nested_pair_counts(max1, max2) == {
            (a, b): count_nested_flags((a, b))
            for a in range(min(max1, max2) + 1)
            for b in range(a, max2 + 1)
        }, (max1, max2)
    with pytest.raises(ValueError):
        nested_pair_counts(-1, 3)


def test_packed_walk_equals_the_list_walk():
    # every box with max1 <= 8 and max1 <= max2 <= 20, each against the
    # list walk on (max1, 20) cut to b <= max2: no entry depends on the box
    for max1 in range(9):
        full = nested_pair_counts_by_lists(max1, 20)
        for max2 in range(max1, 21):
            cut = {(a, b): n for (a, b), n in full.items() if b <= max2}
            assert nested_pair_counts(max1, max2) == cut, (max1, max2)
    assert nested_pair_counts(12, 30) == nested_pair_counts_by_lists(12, 30)


@pytest.mark.parametrize(
    "sizes", [(2, 5), (8, 16), (8, 20), (12, 30)], ids=lambda b: f"{b[0]}-{b[1]}"
)
def test_walk_slot_one_bit_narrower_than_the_box_needs_decodes_wrongly(
    monkeypatch, sizes
):
    # the largest count bounds every partial count of the walk, so its bit
    # length and a sign bit is the narrowest signed slot that works; the
    # width the walk asks kernels for must reach it
    expected = nested_pair_counts_by_lists(*sizes)
    need = max(expected.values()).bit_length() + 1
    signed_bits = kernels._signed_bits
    asked = []

    def recorded(bound):
        asked.append(signed_bits(bound))
        return asked[-1]

    monkeypatch.setattr(kernels, "_signed_bits", recorded)
    assert nested_pair_counts(*sizes) == expected
    assert asked and min(asked) >= need
    monkeypatch.setattr(kernels, "_signed_bits", lambda bound: need)
    assert nested_pair_counts(*sizes) == expected
    monkeypatch.setattr(kernels, "_signed_bits", lambda bound: need - 1)
    assert nested_pair_counts(*sizes) != expected


def box(*starts_lens):
    return SkewShape.of(*starts_lens)


def test_insertion_count_examples():
    single = box([(0, 1)])
    assert insertion_count(single, 0) == 1
    horizontal = box([(0, 2)])
    assert insertion_count(horizontal, 2) == 3
    two_boxes = box([(0, 1)], [(0, 1)])
    assert insertion_count(two_boxes, 0) == 0


def test_insertion_counts_sum_to_flag_counts():
    for D in range(1, 5):
        shapes = enum_skew_classes(D)
        for m in range(11):
            total = sum(insertion_count(s, m) for s in shapes)
            assert total == count_nested_flags((m, m + D))
