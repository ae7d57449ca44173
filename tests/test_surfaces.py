from functools import lru_cache

import pytest

from flagseries import engine, kernels, series, surfaces
from flagseries.engine import rational_form
from flagseries.partitions import count_coloured_flags
from flagseries.series import QSeries, ps_mul, ps_pow
from flagseries.surfaces import (
    DEL_PEZZO_TARGET,
    SurfaceProfile,
    SurfaceResolutionError,
    globalize,
    punctual_nested_table,
    resolve_dp6_exponent,
)


def test_table_rank_one_entries():
    table = punctual_nested_table(1, 4, 6)
    assert table[(2, 4)] == 8
    assert table[(0, 0)] == 1
    assert table[(1, 3)] == 3


def test_table_rank_two_entry():
    table = punctual_nested_table(2, 2, 3)
    assert table[(0, 1)] == 2
    assert table[(2, 2)] == count_coloured_flags(2, (2, 2))


def test_table_equals_colouring_oracle_on_whole_box():
    # entries with b - a > max2 - max1 lie beyond the engine cross-check
    for rank in (1, 2, 3):
        for max1, max2 in ((3, 7), (4, 6)):
            table = punctual_nested_table(rank, max1, max2)
            oracle = {
                (a, b): count_coloured_flags(rank, (a, b))
                for a in range(max1 + 1)
                for b in range(a, max2 + 1)
            }
            assert table.coefficients == {e: c for e, c in oracle.items() if c}
    with pytest.raises(ValueError, match="colours must be positive"):
        punctual_nested_table(0, 2, 3)


def test_table_build_multiplies_no_coefficient_lists(monkeypatch):
    # each cross-checked diagonal is one expansion with Z^rank folded in
    calls = []
    mul_trunc = kernels.mul_trunc

    def counted(a, b, n):
        calls.append(None)
        return mul_trunc(a, b, n)

    monkeypatch.setattr(kernels, "mul_trunc", counted)
    punctual_nested_table.cache_clear()
    try:
        table = punctual_nested_table(2, 4, 8)
    finally:
        punctual_nested_table.cache_clear()
    assert calls == []
    assert table[(4, 8)] == count_coloured_flags(2, (4, 8))


def test_table_reads_the_rank_forms_its_process_kept():
    # the gap-8 form is built first, so the table builds the gaps 1..7
    # (gap 0 is the form 1, built by no rank sum)
    kept = engine._rank_form
    kept.cache_clear()
    punctual_nested_table.cache_clear()
    try:
        rational_form((8,), 2)
        table = punctual_nested_table(2, 8, 16)
        assert kept.cache_info().misses == 8
        assert kept.cache_info().hits == 1
        kept.cache_clear()
        punctual_nested_table.cache_clear()
        assert punctual_nested_table(2, 8, 16) == table
    finally:
        punctual_nested_table.cache_clear()


def test_globalize_identity():
    table = punctual_nested_table(1, 3, 4)
    surf = SurfaceProfile("anything", 1)
    assert globalize(table, surf) == table


def test_globalize_cubed_partition_series():
    z = rational_form(()).expand(3, z_power=1)
    cubed = globalize(z, SurfaceProfile("chi3", 3))
    assert cubed.dense() == [1, 3, 9, 22]


def test_globalize_requires_unit_constant():
    bad = QSeries(("q",), (3,), {(1,): 1})
    with pytest.raises(ValueError):
        globalize(bad, SurfaceProfile("s", 2))


def test_globalize_multiplicativity():
    table = punctual_nested_table(2, 2, 3)
    a = globalize(table, SurfaceProfile("a", 2))
    b = globalize(table, SurfaceProfile("b", 3))
    combined = globalize(table, SurfaceProfile("ab", 5))
    assert combined == ps_mul(a, b)


def test_globalize_distributes_over_products():
    t1 = punctual_nested_table(1, 2, 3)
    t2 = punctual_nested_table(2, 2, 3)
    surf = SurfaceProfile("s", 3)
    assert globalize(ps_mul(t1, t2), surf) == ps_mul(
        globalize(t1, surf), globalize(t2, surf)
    )


def test_globalize_single_variable_sanity():
    z = rational_form(()).expand(10, z_power=1)
    for e in (2, 5):
        assert globalize(z, SurfaceProfile("s", e)) == ps_pow(z, e)


def test_resolve_dp6_exponent_unique():
    e = resolve_dp6_exponent()
    assert 2 <= e <= 12
    table = punctual_nested_table(6, 6, 12)
    powered = ps_pow(table, e)
    assert powered[(6, 12)] == DEL_PEZZO_TARGET
    # exponent 0 flattens the table and exponent 1 keeps the punctual value,
    # so neither can reproduce the global count
    assert ps_pow(table, 0)[(6, 12)] == 0
    assert table[(6, 12)] != DEL_PEZZO_TARGET


@lru_cache(maxsize=None)
def dp6_counts():
    """c(e), the (6, 12) coefficient of T^e for e = 0..12, T the scanned
    table."""
    table = punctual_nested_table(6, 6, 12)
    return tuple(ps_pow(table, e)[(6, 12)] for e in range(13))


def test_dp6_counts_strictly_increase_with_the_exponent():
    # the proof behind the scan's early stop, checked on the table it scans
    counts = dp6_counts()
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_dp6_scan_stops_past_the_target(monkeypatch):
    punctual_nested_table(6, 6, 12)  # cached, so only the scan multiplies
    calls = []

    def counted(a, b):
        calls.append(None)
        return ps_mul(a, b)

    # count the products made through either module's binding
    monkeypatch.setattr(series, "ps_mul", counted)
    monkeypatch.setattr(surfaces, "ps_mul", counted)
    assert resolve_dp6_exponent() == 6
    # one product per exponent 2..6: the scan ends at the match
    assert len(calls) == 5


@pytest.mark.parametrize("exponent", [2, 12])
def test_dp6_scan_finds_the_first_and_last_exponent(monkeypatch, exponent):
    monkeypatch.setattr(surfaces, "DEL_PEZZO_TARGET", dp6_counts()[exponent])
    assert resolve_dp6_exponent() == exponent


@pytest.mark.parametrize(
    "exponent, offset, reached",
    [(2, -1, 2), (6, 1, 7), (12, 1, 12)],
    ids=["below", "between", "above"],
)
def test_dp6_scan_raises_when_no_count_equals_the_target(
    monkeypatch, exponent, offset, reached
):
    counts = dp6_counts()
    monkeypatch.setattr(surfaces, "DEL_PEZZO_TARGET", counts[exponent] + offset)
    with pytest.raises(
        SurfaceResolutionError, match=f"exponent {reached} reached {counts[reached]}$"
    ):
        resolve_dp6_exponent()


def test_surface_profile_rejects_negative():
    with pytest.raises(ValueError):
        SurfaceProfile("bad", -1)
