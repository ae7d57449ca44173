import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from flagseries import cli, engine, motives, partitions, quot, surfaces
from flagseries.cli import main
from flagseries.partitions import coloured_flag_counts
from flagseries.series import LEFSCHETZ, RationalForm

SCHEMA = json.loads(
    (
        Path(__file__).resolve().parents[1]
        / "src"
        / "flagseries"
        / "schemas"
        / "cli_output.schema.json"
    ).read_text()
)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_fz_D(capsys):
    code, payload = run_json(capsys, ["fz", "--D", "3"])
    assert code == 0
    assert payload["numerator"] == [3, -1, -1]
    assert payload["denominator"] == [[1, 1], [2, 1], [3, 1]]
    assert payload["series_prefix"][:4] == ["3", "5", "12", "23"]


def test_fz_k(capsys):
    code, payload = run_json(capsys, ["fz", "--k", "1,1"])
    assert code == 0
    assert payload["k"] == [1, 1]


def test_fq(capsys):
    code, payload = run_json(capsys, ["fq", "--r", "2", "--D", "2"])
    assert code == 0
    assert payload["denominator"] == [[1, 2], [2, 1]]
    oracle = coloured_flag_counts(2, (12, 14))
    assert payload["series_prefix"] == [str(oracle[(n, n + 2)]) for n in range(13)]


def test_corrupted_rank_form_fails_verify_and_globalize(monkeypatch, capsys):
    # fq prints rational_form_rD, so verify and the cross-check behind
    # globalize must referee that very form: a corrupted one has to show.
    original = quot.rational_form_rD

    def corrupted(r, D):
        rf = original(r, D)
        if (r, D) != (2, 2):
            return rf
        numerator = list(rf.numerator)
        numerator[1] += 1
        return RationalForm(numerator, rf.denominator)

    monkeypatch.setattr(quot, "rational_form_rD", corrupted)
    surfaces.punctual_nested_table.cache_clear()
    try:
        assert main(["verify"]) == 1
        argv = ["globalize", "--rank", "2", "--n1", "2", "--n2", "4", "--chi", "1"]
        assert main(argv) == 3
    finally:
        surfaces.punctual_nested_table.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("internal consistency check failed:")


def _offset_h3_by_L(monkeypatch):
    original = motives._h3_closed
    monkeypatch.setattr(motives, "_h3_closed", lambda n: original(n) + LEFSCHETZ)


def _double_second_derivative(monkeypatch):
    original = quot.binomial_weighted_derivative

    def doubled(series, order):
        out = original(series, order)
        return 2 * out if order == 2 else out

    monkeypatch.setattr(quot, "binomial_weighted_derivative", doubled)


@pytest.mark.parametrize(
    "corrupt, check, only",
    [
        (_offset_h3_by_L, "stratification closes on the punctual motive", True),
        # the exponential identity applies the same operator and fails too
        (_double_second_derivative,
         "second-order operator identity for fixed small size 2", False),
    ],
    ids=["strata", "fq2"],
)
def test_corrupted_construction_fails_its_verify_check(
    monkeypatch, capsys, corrupt, check, only
):
    # each check compares two constructions, so breaking one of them is a
    # FAIL line and exit 1, not an internal error
    corrupt(monkeypatch)
    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert "FAIL " + check in failed
    if only:
        assert failed == ["FAIL " + check]
    assert err == ""


def test_corrupted_rank_one_table_fails_globalize(monkeypatch, capsys):
    # the prefix walk builds globalize's rank-one table; the engine
    # cross-check behind it must catch a single wrong entry.
    original = partitions.nested_pair_counts

    def corrupted(max1, max2):
        table = original(max1, max2)
        table[(1, 2)] += 1
        return table

    monkeypatch.setattr(surfaces, "nested_pair_counts", corrupted)
    surfaces.punctual_nested_table.cache_clear()
    try:
        argv = ["globalize", "--rank", "2", "--n1", "2", "--n2", "4", "--chi", "1"]
        assert main(argv) == 3
    finally:
        surfaces.punctual_nested_table.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("internal consistency check failed:")


def test_oracle(capsys):
    code, payload = run_json(capsys, ["oracle", "--nesting", "2,4"])
    assert code == 0
    assert payload["count"] == "8"


def test_oracle_rank(capsys):
    code, payload = run_json(capsys, ["oracle", "--nesting", "0,1", "--rank", "2"])
    assert code == 0
    assert payload["count"] == "2"


def test_oracle_rejects_decreasing(capsys):
    assert main(["oracle", "--nesting", "4,2"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--nesting", "12,40"],
        ["--nesting", "47"],
        ["--nesting", "1000000"],
        ["--nesting", "12,30", "--rank", "2"],
        ["--nesting", "1,2", "--rank", "1000000"],
    ],
)
def test_oracle_rejects_work_beyond_the_cap(capsys, argv):
    assert main(["oracle", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("oracle work estimate") and err.count("\n") == 1


def test_oracle_cap_admits_the_measured_sizes():
    # these take 0.5-2 s from the command line
    for rank, spec in ((1, (12, 30)), (1, (4, 8, 16, 24)), (1, (45,)),
                       (2, (10, 20)), (6, (10, 20))):
        assert cli._oracle_work(rank, spec) <= cli.ORACLE_MAX_WORK, (rank, spec)


@pytest.mark.parametrize(
    "exc, code, prefix",
    [
        (AssertionError, 3, "internal consistency check failed: "),
        (ValueError, 2, ""),
    ],
)
def test_internal_check_exit_code(capsys, monkeypatch, exc, code, prefix):
    def broken(*args, **kwargs):
        raise exc("closed form disagrees with termwise build")

    monkeypatch.setattr(engine, "rational_form", broken)
    assert main(["fz", "--D", "3"]) == code
    err = capsys.readouterr().err
    assert err == prefix + "closed form disagrees with termwise build\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["fz"], ["fz", "--D", "0"], ["fz", "--k=-1,2"], ["fz", "--k", "0,0"],
        ["fq", "--r", "0", "--D", "2"], ["fq", "--r", "2", "--D", "0"],
        ["oracle", "--nesting", "4,2"], ["oracle", "--nesting=-1,2"],
        ["motive", "--nesting", "3,2"], ["motive", "--nesting", "2,1"],
        ["motive", "--strata", "1"], ["motive", "--series", "4"],
        ["fz", "--k", "1,,2"], ["oracle", "--nesting", "2,4,"],
        ["verify", "--quick"], ["motive"],
        ["globalize", "--rank", "0", "--n1", "1", "--n2", "2", "--chi", "1"],
        ["globalize", "--rank", "1", "--n1", "1", "--n2", "2", "--chi", "-1"],
        ["globalize", "--rank", "1", "--n1", "3", "--n2", "2", "--chi", "1"],
    ],
)
def test_rejected_input_exits_2(capsys, argv):
    # argparse rejects an option out of range, the library call a domain
    # rule; either way it is exit 2 with a message and no output
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err and "Traceback" not in err


def test_motive_nesting(capsys):
    code, payload = run_json(capsys, ["motive", "--nesting", "3,5"])
    assert code == 0
    assert payload["motive"] == ["1", "2", "4", "4", "2"]
    assert payload["euler"] == "13"


def test_motive_strata(capsys):
    code, payload = run_json(capsys, ["motive", "--strata", "6"])
    assert code == 0
    assert payload["total"] == ["1", "1", "2", "3", "3", "1"]


def test_motive_series(capsys):
    code, payload = run_json(capsys, ["motive", "--series", "2", "--order", "6"])
    assert code == 0
    assert payload["coefficients"][2] == ["1", "1"]


@pytest.mark.parametrize("series", ["2", "3"])
def test_motive_series_order_bounds(capsys, series):
    assert main(["motive", "--series", series, "--order", "-1"]) == 2
    assert "order must be nonnegative" in capsys.readouterr().err
    code, payload = run_json(capsys, ["motive", "--series", series, "--order", "0"])
    assert code == 0
    assert len(payload["coefficients"]) == 1


def test_motive_requires_one_mode(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["motive", "--nesting", "2,4", "--strata", "5"])
    assert exc.value.code == 2
    assert "not allowed with argument --nesting" in capsys.readouterr().err


def test_globalize(capsys):
    code, payload = run_json(
        capsys,
        ["globalize", "--rank", "1", "--n1", "2", "--n2", "4", "--chi", "3",
         "--coeff", "0,1"],
    )
    assert code == 0
    assert payload["coefficient"] == "3"


@pytest.mark.parametrize("coeff", ["9,9", "3,3", "2,4", "-1,0", "0,-1"])
def test_globalize_rejects_coeff_outside_table(capsys, coeff):
    argv = ["globalize", "--rank", "1", "--n1", "2", "--n2", "3", "--chi", "1",
            f"--coeff={coeff}"]
    assert main(argv) == 2
    assert "--coeff" in capsys.readouterr().err


def test_globalize_rejects_negative_n1(capsys):
    argv = ["globalize", "--rank", "1", "--n1", "-1", "--n2", "3", "--chi", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --n1: expected an integer >= 0" in capsys.readouterr().err


def test_verify(capsys):
    code, payload = run_json(capsys, ["verify"])
    assert code == 0
    assert payload["all_ok"] is True


def test_verify_runs_the_numerator_recurrence_once(monkeypatch, capsys):
    # the identities span the gaps 0..4 and ask for the largest first, so
    # one run on (4,) fills the numerator table for every smaller gap
    monkeypatch.setattr(engine, "_numerators", ((1,),))
    budgets = []
    original = engine._numerator_rows

    def recording(groups, budget, steps):
        budgets.append(budget)
        return original(groups, budget, steps)

    monkeypatch.setattr(engine, "_numerator_rows", recording)
    assert main(["verify"]) == 0
    assert budgets == [(4,)]


def test_text_and_csv_formats(capsys):
    assert main(["fz", "--D", "2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "series prefix" in out
    assert main(["fz", "--D", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "degree,numerator"


def test_tables_json_payload(capsys, tmp_path):
    code, payload = run_json(
        capsys, ["tables", "--out", str(tmp_path / "t"), "--max-gap", "2"]
    )
    assert code == 0
    assert len(payload["written"]) == 2


def test_tables_deterministic(tmp_path):
    def run(sub):
        out = tmp_path / sub
        code = main(["tables", "--out", str(out), "--max-gap", "4"])
        assert code == 0
        return {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }

    first = run("a")
    second = run("b")
    assert first == second
    data = json.loads(first["one_gap_rational_forms.json"])
    assert data["3"]["numerator"] == [3, -1, -1]


def test_tables_out_must_be_writable(capsys, tmp_path):
    # An existing regular file as --out, or a path below one, is a user
    # error: one line on stderr and exit 2, not a traceback.
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    for out in (blocker, blocker / "sub"):
        assert main(["tables", "--out", str(out), "--max-gap", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write the tables to --out "), out
        assert err.count("\n") == 1, out
    assert blocker.read_text() == "keep"


def test_tables_max_gap_must_be_positive(tmp_path):
    for max_gap in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "--out", str(tmp_path / "t"), "--max-gap", max_gap])
        assert exc.value.code == 2
    assert not (tmp_path / "t").exists()


def run_fresh(argv):
    """Run ``argv`` in a fresh interpreter.  The child finds the package
    the tests import, also when only pytest's pythonpath setting put it on
    sys.path."""
    src = str(Path(engine.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_entry_point_subprocess():
    proc = run_fresh(["-m", "flagseries.cli", "oracle", "--nesting", "2,3,4"])
    assert proc.returncode == 0
    assert proc.stdout.strip() == "10"


LOADED_AFTER = """
import contextlib, io, json, sys
from flagseries import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:] + ["--format", "json"])
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_after(argv):
    """Exit code and the modules a fresh interpreter holds after one CLI
    request."""
    proc = run_fresh(["-c", LOADED_AFTER, *argv])
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


def test_fz_loads_only_the_modules_it_runs():
    code, modules = loaded_after(["fz", "--D", "3"])
    assert code == 0
    unused = {
        "flagseries.motives",
        "flagseries.quot",
        "flagseries.surfaces",
        "flagseries.shapes",
        "flagseries.partitions",
        "dataclasses",
    }
    assert not unused & modules
    assert "flagseries.engine" in modules
    # A multi-gap form counts the fillings of connected shapes.
    code, modules = loaded_after(["fz", "--k", "1,1"])
    assert code == 0
    assert "flagseries.shapes" in modules


def test_fq_loads_quot():
    code, modules = loaded_after(["fq", "--r", "2", "--D", "2"])
    assert code == 0
    assert "flagseries.quot" in modules
    assert "dataclasses" not in modules


@pytest.mark.parametrize(
    "argv",
    [
        ["fq", "--r", "2", "--D", "3"],
        ["oracle", "--nesting", "2,4"],
        ["verify"],
        ["globalize", "--rank", "1", "--n1", "2", "--n2", "4", "--chi", "1"],
    ],
)
def test_flag_counts_load_no_shapes(argv):
    # partitions counts flags from tuples of parts, not shape classes
    code, modules = loaded_after(argv)
    assert code == 0
    assert "flagseries.partitions" in modules
    assert "flagseries.shapes" not in modules


def test_package_exports_lazily():
    import importlib

    import flagseries

    assert flagseries.__all__
    assert set(flagseries.__all__) <= set(dir(flagseries))
    for name in flagseries.__all__:
        module, attribute = flagseries._EXPORTS[name]
        home = importlib.import_module(f"flagseries.{module}")
        assert getattr(flagseries, name) is getattr(home, attribute), name
        assert name not in vars(flagseries), name
    assert flagseries.KERNEL_BACKEND is importlib.import_module("flagseries.kernels").BACKEND
    # names that only a submodule's own list once declared
    assert flagseries.SurfaceResolutionError is surfaces.SurfaceResolutionError
    assert flagseries.DEL_PEZZO_TARGET == surfaces.DEL_PEZZO_TARGET
    assert flagseries.StrataMotives is motives.StrataMotives
    assert flagseries.motive_Y1112 is motives.motive_Y1112
    assert flagseries.BASE_NESTED_MOTIVES is motives.BASE_NESTED_MOTIVES
    assert flagseries.GLOBAL_PLANE_MOTIVES is motives.GLOBAL_PLANE_MOTIVES
    for module in ("engine", "motives", "quot", "surfaces"):
        assert not hasattr(importlib.import_module(f"flagseries.{module}"), "__all__")
    with pytest.raises(AttributeError, match="no_such_name"):
        flagseries.no_such_name
    assert not hasattr(flagseries, "_placement_terms")
    # the shape-class census lives in tests/referees.py, not the package
    for name in (
        "count_partitions_with_k_parts",
        "enum_skew_classes",
        "insertion_count",
        "nw_path",
        "rp_count",
        "sym_factor",
        "transpose",
    ):
        assert not hasattr(flagseries, name), name


def test_from_import_still_loads_submodules():
    proc = run_fresh([
        "-c",
        "import sys; from flagseries import cli, quot; "
        "print(cli.__name__, quot.__name__, 'flagseries.quot' in sys.modules)",
    ])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["flagseries.cli", "flagseries.quot", "True"]


GUARD_ENV_ARGVS = (
    ["fz", "--k", "1,1"],
    ["fz", "--D", "2"],
    ["fq", "--r", "2", "--D", "2"],
)


def assert_guard_env_ignored(monkeypatch, capsys, raws, argvs=GUARD_ENV_ARGVS):
    # Every rational form is exact, so FLAGSERIES_GUARD is no longer read:
    # any value, well formed or not, leaves exit code and output unchanged.
    monkeypatch.delenv("FLAGSERIES_GUARD", raising=False)
    expected = []
    for argv in argvs:
        expected.append((main(argv), capsys.readouterr()))
    for raw in raws:
        monkeypatch.setenv("FLAGSERIES_GUARD", raw)
        for argv, want in zip(argvs, expected):
            assert (main(argv), capsys.readouterr()) == want, (raw, argv)


def test_guard_env_override(monkeypatch, capsys):
    assert_guard_env_ignored(monkeypatch, capsys, ("12",))


def test_malformed_guard_env_rejected(monkeypatch, capsys):
    # A malformed value used to exit 2; with the variable unread it changes
    # nothing, and the parser that rejected it is gone.
    assert not hasattr(engine, "default_guard")
    assert_guard_env_ignored(monkeypatch, capsys, ("ten", "-3", "0"))


def test_malformed_guard_env_rejected_in_every_mode(monkeypatch, capsys):
    for argv in GUARD_ENV_ARGVS:
        assert_guard_env_ignored(monkeypatch, capsys, ("ten",), (argv,))


def test_jobs_option_removed():
    with pytest.raises(SystemExit) as exc:
        main(["fz", "--D", "2", "--jobs", "2"])
    assert exc.value.code == 2


def test_guard_must_be_positive():
    # fz --guard is removed, so argparse rejects every value, positive or not.
    for guard in ("-10", "0", "x", "5"):
        with pytest.raises(SystemExit) as exc:
            main(["fz", "--D", "4", "--guard", guard])
        assert exc.value.code == 2


def test_guard_applies_to_k_only():
    # --guard used to apply to fz --k only; every form is now exact, so no
    # mode takes it.
    for argv in (
        ["fz", "--D", "3", "--guard", "5"],
        ["fz", "--k", "1,1", "--guard", "5"],
        ["fq", "--r", "2", "--D", "2", "--guard", "5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_fz_rejects_D_with_k(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fz", "--D", "2", "--k", "1"])
    assert exc.value.code == 2
    assert "argument --k: not allowed with argument --D" in capsys.readouterr().err


def test_prefix_must_be_nonnegative(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a form was computed before --prefix was checked")

    monkeypatch.setattr(engine, "rational_form", unreachable)
    for argv in (
        ["fz", "--D", "2", "--prefix", "-1"],
        ["fz", "--k", "1,1", "--prefix", "-1"],
        ["fq", "--r", "2", "--D", "2", "--prefix", "-1"],
        ["fz", "--D", "2", "--prefix", "x"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_prefix_zero_emits_one_coefficient(capsys):
    code, payload = run_json(capsys, ["fz", "--D", "3", "--prefix", "0"])
    assert code == 0
    assert payload["series_prefix"] == ["3"]
