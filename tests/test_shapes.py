import itertools

import pytest

from flagseries.partitions import count_nested_flags
from flagseries.shapes import (
    ConnectedSkew,
    SkewShape,
    _rotate,
    _transpose,
    enum_connected_skew,
)
from referees import (
    enum_skew_classes,
    insertion_count,
    rotate,
    rp_count,
    skew_class_of_cells,
    sym_factor,
    transpose,
)

BOX = SkewShape.of([(0, 1)])
H_DOMINO = SkewShape.of([(0, 2)])
V_DOMINO = SkewShape.of([(0, 1), (0, 1)])


def test_connected_validation():
    with pytest.raises(ValueError):
        ConnectedSkew(((1, 1),))  # not translated to start 0
    with pytest.raises(ValueError):
        ConnectedSkew(((0, 1), (0, 0)))
    with pytest.raises(ValueError):
        ConnectedSkew(((0, 1), (1, 1)))  # starts increase downward
    with pytest.raises(ValueError):
        ConnectedSkew(((2, 1), (0, 1)))  # rows share no column


def test_enum_connected_counts():
    assert len(enum_connected_skew(1)) == 1
    assert len(enum_connected_skew(2)) == 2
    assert len(enum_connected_skew(3)) == 4


def test_enumerated_signatures_pass_the_checks():
    # the enumerator skips ConnectedSkew's checks, so rebuild each diagram
    # through them; the symmetric images stay in the enumeration
    for D in range(1, 9):
        comps = enum_connected_skew(D)
        assert list(comps) == sorted(set(comps))
        for comp in comps:
            assert ConnectedSkew(comp.rows) == comp
            flipped = transpose(SkewShape((comp,))).components[0]
            assert ConnectedSkew(_transpose(comp.rows)) == flipped
            turned = rotate(SkewShape((comp,))).components[0]
            assert ConnectedSkew(_rotate(comp.rows)) == turned


def test_enum_class_counts():
    assert len(enum_skew_classes(1)) == 1
    assert len(enum_skew_classes(2)) == 3
    assert len(enum_skew_classes(3)) == 7


def test_enum_classes_consistent_with_connected_compositions():
    # multisets of connected shapes: check via generating count at size 4
    c = [len(enum_connected_skew(d)) for d in range(1, 5)]
    # partitions of 4 as multisets of component sizes:
    # 4 | 3+1 | 2+2 | 2+1+1 | 1+1+1+1
    expected = (
        c[3]
        + c[2] * c[0]
        + c[1] * (c[1] + 1) // 2
        + c[1] * 1
        + 1
    )
    assert len(enum_skew_classes(4)) == expected


def test_enum_order_is_stable():
    # golden order, frozen: classes sorted by (size, row signature) per component
    keys = [s.key() for s in enum_skew_classes(3)]
    assert keys[0] == (((0, 1),), ((0, 1),), ((0, 1),))
    assert keys == sorted(keys, key=lambda k: tuple((sum(l for _, l in r), r) for r in k))
    assert enum_skew_classes(3) == enum_skew_classes(3)


def test_nw_path_strips():
    horizontal = ConnectedSkew(((0, 4),))
    path = horizontal.nw_path()
    assert (path.ells, path.vees) == ((4,), (1,))
    vertical = ConnectedSkew(((0, 1),) * 4)
    path = vertical.nw_path()
    assert (path.ells, path.vees) == ((1,), (4,))


def test_nw_path_anti_hook():
    # the 3-box shape (2,2) minus (1): one box over a row of two
    anti = ConnectedSkew(((1, 1), (0, 2)))
    path = anti.nw_path()
    assert (path.ells, path.vees) == ((1, 1), (1, 1))
    assert path.offset_weight == 1
    assert path.length == 4


def test_nw_path_bound_sharp():
    for D in range(1, 7):
        for comp in enum_connected_skew(D):
            assert comp.nw_path().length - 1 <= D
        assert ConnectedSkew(((0, D),)).nw_path().length - 1 == D


def test_nw_path_transpose_swaps_runs():
    for D in range(1, 7):
        for comp in enum_connected_skew(D):
            p = comp.nw_path()
            q = transpose(SkewShape((comp,))).components[0].nw_path()
            assert q.ells == tuple(reversed(p.vees))
            assert q.vees == tuple(reversed(p.ells))


def test_offset_weight_vanishes_iff_straight():
    for D in range(1, 7):
        for comp in enum_connected_skew(D):
            path = comp.nw_path()
            assert (path.offset_weight == 0) == (path.M == 1)
            assert comp.is_straight() == (path.M == 1)


def test_transpose_examples():
    assert transpose(H_DOMINO) == V_DOMINO
    hook = SkewShape.of([(0, 2), (0, 1)])
    assert transpose(hook) == hook
    for D in range(1, 6):
        for s in enum_skew_classes(D):
            assert transpose(transpose(s)) == s


def test_sym_factor():
    assert sym_factor(SkewShape.of([(0, 1)], [(0, 1)])) == 2
    assert sym_factor(SkewShape.of([(0, 1)], [(0, 2)])) == 1
    assert sym_factor(SkewShape.of([(0, 1)], [(0, 1)], [(0, 1)])) == 6


def test_skew_class_of_cells():
    cells = {(0, 0), (1, 0), (3, 0)}
    shape = skew_class_of_cells(cells)
    assert shape == SkewShape.of([(0, 2)], [(0, 1)])


def test_rp_single_block():
    for D in range(1, 5):
        for shape in enum_skew_classes(D):
            assert rp_count(shape, (D,)) == 1


def test_rp_two_disjoint_boxes():
    assert rp_count(SkewShape.of([(0, 1)], [(0, 1)]), (1, 1)) == 2


def test_rp_displayed_filling_exists():
    shape = SkewShape.of([(0, 3), (0, 3), (0, 1)])
    assert rp_count(shape, (1, 1, 3, 2)) >= 1


def test_rp_size_mismatch():
    with pytest.raises(ValueError):
        rp_count(BOX, (2,))


def test_rp_zero_blocks_are_transparent():
    shape = SkewShape.of([(0, 2), (0, 1)])
    base = rp_count(shape, (2, 1))
    assert rp_count(shape, (0, 2, 1)) == base
    assert rp_count(shape, (2, 0, 1)) == base
    assert rp_count(shape, (2, 1, 0)) == base


def test_rp_chain_equivalence():
    # fillings into blocks k weighted by insertions enumerate the flags of
    # sizes (m, m+k1, m+k1+k2, ...), so the block caps are refereed too
    gaps = [k for D in range(1, 5) for k in compositions(D)] + [(1, 0, 2)]
    for m in range(7):
        insertions = {}
        for k in gaps:
            total = 0
            for shape in enum_skew_classes(sum(k)):
                if shape not in insertions:
                    insertions[shape] = insertion_count(shape, m)
                total += rp_count(shape, k) * insertions[shape]
            spec = tuple(itertools.accumulate(k, initial=m))
            assert total == count_nested_flags(spec), (k, m)


def compositions(K):
    """Every composition of K into positive parts."""
    for r in range(K):
        for cuts in itertools.combinations(range(1, K), r):
            bounds = (0,) + cuts + (K,)
            yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def test_rp_count_transposition_invariant():
    for K in range(1, 7):
        for shape in enum_skew_classes(K):
            flipped = transpose(shape)
            if flipped.key() <= shape.key():
                continue  # self-transpose, or checked from the other side
            for k in compositions(K):
                assert rp_count(shape, k) == rp_count(flipped, k), (shape, k)


def test_rp_count_rotation_reverses_content():
    # a filling f of S with labels 1..m gives m + 1 - f on the rotated S
    for K in range(1, 7):
        for comp in enum_connected_skew(K):
            shape = SkewShape((comp,))
            turned = rotate(shape)
            for k in compositions(K):
                assert rp_count(turned, k) == rp_count(shape, k[::-1]), (shape, k)
