"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import referee  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import Bench, Pass  # noqa: E402


def _stream(name, seed, passes=3):
    rng = random.Random(seed)
    return [workloads.PASS_BUILDERS[name](rng) for _ in range(passes)]


def test_same_seed_same_requests():
    for name in workloads.WORKLOADS:
        assert _stream(name, 7) == _stream(name, 7)
        assert _stream(name, 7) != _stream(name, 8)


def test_other_seeds_stay_in_range():
    for seed in range(40):
        for req in _stream("one_gap", seed, 1)[0]:
            assert 8 <= req["D"] <= 9
            assert workloads.PREFIX_RANGE[0] <= req["prefix"] <= workloads.PREFIX_RANGE[1]
        ks = [tuple(r["k"]) for r in _stream("multi_gap", seed, 1)[0]]
        assert (1,) * 6 in ks and len(ks) == 5 and len(set(ks)) == 5
        assert all(sum(k) in (6, 7) and len(k) >= 4 and min(k) >= 1 for k in ks)
        kinds = {}
        for req in _stream("rank_global", seed, 1)[0]:
            kinds[req["kind"]] = kinds.get(req["kind"], 0) + 1
            if req["kind"] == "fq_prefix":
                assert 2 <= req["r"] <= 4 and 5 <= req["D"] <= 8
            if req["kind"] == "rank_forms":
                assert sorted(req["r"]) == [2, 3, 4] and 5 <= req["D"] <= 8
            if req["kind"] == "globalize":
                assert 2 <= req["rank"] <= 6
                assert req["n1"] <= 8 and req["n1"] <= req["n2"] <= 16
                assert 1 <= req["chi"] <= 12
        assert kinds == {"rank_forms": 4, "fq_prefix": 2, "globalize": 3, "dp6": 1, "verify": 1}
        first = _stream("rank_global", seed, 1)[0][0]
        assert first["D"] == 8 and first["r"][0] == 4


def _one_gap_output(d, prefix):
    num = referee.PUBLISHED_ONE_GAP[d]
    den = [[j, 1] for j in range(1, d + 1)]
    series = referee.times(referee.expand(num, den, prefix), referee.partition_power(1, prefix), prefix)
    return {"D": d, "numerator": list(num), "denominator": den,
            "series_prefix": [str(c) for c in series]}


def test_corrupted_output_counts_as_failure():
    req = {"kind": "fz_D", "D": 8, "prefix": 10}
    good = _one_gap_output(8, 10)
    assert Bench.judge(referee.check_cli, req, json.dumps(good)) is None

    bad_num = json.loads(json.dumps(good))
    bad_num["numerator"][3] += 1
    bad_series = json.loads(json.dumps(good))
    bad_series["series_prefix"][5] = str(int(bad_series["series_prefix"][5]) + 1)
    reasons = [
        Bench.judge(referee.check_cli, req, json.dumps(bad_num)),
        Bench.judge(referee.check_cli, req, json.dumps(bad_series)),
        Bench.judge(referee.check_cli, req, json.dumps(good)[:-5]),
        Bench.judge(referee.check_cli, req, json.dumps({"D": 8})),
    ]
    assert all(r is not None for r in reasons)
    assert Pass(1.0, 1.0, 1.0, 1.0, [1.0] * 5, [None] + reasons).failed == 4

    dp6 = {"kind": "dp6"}
    assert referee.check_session([dp6], [{"exponent": 9, "count": referee.DEL_PEZZO_COUNT}]) == [None]
    assert referee.check_session([dp6], [{"exponent": 9, "count": referee.DEL_PEZZO_COUNT + 1}]) != [None]
    glob = {"kind": "globalize", "rank": 2, "n1": 2, "n2": 4, "chi": 3}
    z6 = list(referee.partition_power(6, 4))
    assert referee.check_session([glob], [{"diagonal": z6[:3], "row0": z6}]) == [None]
    assert referee.check_session([glob], [{"diagonal": z6[:3], "row0": z6[:-1] + [0]}]) != [None]
    assert referee.check_session([glob], [None]) == ["request raised"]


def test_partition_power_matches_known_values():
    assert referee.partition_power(1, 10) == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
    assert referee.partition_power(2, 5) == (1, 2, 5, 10, 20, 36)


def test_kernel_terms_count_the_loop_positions():
    rng = random.Random(3)
    for _ in range(200):
        a = [1] * rng.randint(1, 12)
        b = [1] * rng.randint(1, 12)
        n = rng.randint(0, 15)
        assert spans.kernel_terms("mul_trunc", (a, b, n)) == sum(
            1 for i in range(min(len(a), n + 1)) for _ in range(min(len(b), n + 1 - i))
        )
        shift = rng.randint(0, 18)
        assert spans.kernel_terms("addmul_shifted", ([0] * (n + 1), b, shift, 1, n)) == (
            len(range(min(len(b), n + 1 - shift))) if shift <= n else 0
        )
        assert spans.kernel_terms("inv_trunc", (a, n)) == sum(
            min(k, len(a) - 1) for k in range(1, n + 1)
        )


# Names other modules import by name; a tracer that patched only the
# defining module would miss the calls made through these.
BY_NAME = {
    "engine": ("enum_skew_classes", "rp_count", "transpose", "clear_denominator"),
    "quot": ("fz_D", "fz_ratio_D", "clear_denominator", "count_coloured_flags",
             "enum_partitions", "ps_inv", "ps_mul"),
    "surfaces": ("count_coloured_flags", "fq_rD", "ps_pow"),
    "cli": ("count_coloured_flags", "count_nested_flags"),
}


def test_tracer_patches_by_name_bindings_and_restores_them():
    import importlib

    import flagseries
    from flagseries import cli, engine, quot, surfaces

    modules = {m: importlib.import_module(f"flagseries.{m}") for m in BY_NAME}
    before = {(m, a): getattr(modules[m], a) for m, attrs in BY_NAME.items() for a in attrs}
    init = engine.PlacementWeight.__init__

    tracer = spans.Tracer()
    tracer.install()
    try:
        for (m, a), original in before.items():
            patched = getattr(modules[m], a)
            assert patched is not original, (m, a)
            assert getattr(patched, spans._MARK) is original, (m, a)
        tracer.root(quot.rational_form_rD, 2, 3)
        tracer.root(lambda: surfaces.globalize(
            surfaces.punctual_nested_table(2, 2, 4), surfaces.SurfaceProfile("x", 2)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.root(cli.main, ["fz", "--k", "1,1", "--format", "json"]) == 0
    finally:
        tracer.uninstall()

    assert spans.patched_bindings() == []
    for (m, a), original in before.items():
        assert getattr(modules[m], a) is original, (m, a)
    assert engine.PlacementWeight.__init__ is init
    assert flagseries.fz_D is engine.fz_D

    metrics = spans.layer_metrics(spans.merge([tracer.summary()]))
    for m in ("cli", "engine", "shapes", "kernels", "series", "quot", "partitions", "surfaces"):
        assert metrics[f"{m}.calls"] > 0, m
    assert metrics["shapes.rp_count.calls"] > 0
    assert metrics["partitions.count_coloured_flags.calls"] > 0
    assert metrics["series.multivar.self_s"] > 0
    assert metrics["kernels.terms"] > 0
    assert 0.95 < metrics["trace.coverage"] <= 1.0 + 1e-9


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(run.END_TO_END_UNITS) == [m["name"] for m in spec["end_to_end"]]
    assert all(run.END_TO_END_UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    empty = {"stats": {}, "kernel_terms": 0, "root_s": 0.0}
    names = list(spans.layer_metrics(empty)) + ["trace.overhead_s"]
    assert sorted(names) == sorted(m["name"] for m in spec["per_layer"])
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_nearest_rank_percentile_picks_the_stratum():
    from run import percentile

    costs = [3.0, 0.4, 15.0, 1.1, 0.9]
    assert percentile(costs, 0.5) == 1.1
    assert percentile(costs, 0.9) == 15.0
    assert percentile([2.7, 0.5, 8.0], 0.5) == 2.7
    assert percentile([2.0], 0.9) == 2.0
