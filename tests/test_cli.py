import ast
import json
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import jsonschema
import pytest

from flagseries import cli, engine, motives, partitions, quot, surfaces
from flagseries.cli import main
from flagseries.forms import RationalForm
from flagseries.motives import LEFSCHETZ
from flagseries.partitions import coloured_flag_counts
from flagseries.series import QSeries

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
    # fq prints the engine's rank-r sum, so verify and the cross-check
    # behind globalize must referee that very form: a corrupted one has to
    # show, even when the true form was built and kept before.
    engine.rational_form((2,), 2)
    original = engine._rank_form

    def corrupted(r, D):
        rf = original(r, D)
        if (r, D) != (2, 2):
            return rf
        numerator = list(rf.numerator)
        numerator[1] += 1
        return RationalForm(numerator, rf.denominator)

    monkeypatch.setattr(engine, "_rank_form", corrupted)
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


def _miscount_one_flag_pair(monkeypatch):
    # (10, 14) lies outside both colouring boxes, so only the one-gap
    # check reads it
    original = partitions.count_nested_flags

    def miscounted(spec):
        return original(spec) + (tuple(spec) == (10, 14))

    monkeypatch.setattr(partitions, "count_nested_flags", miscounted)


def _miscount_one_colour_of_the_rank_box(monkeypatch):
    original = partitions._one_colour_counts

    def miscounted(box):
        counts = original(box)
        if box != (6, 8):
            return counts
        return tuple((v, c + (v == (3, 5))) for v, c in counts)

    monkeypatch.setattr(partitions, "_one_colour_counts", miscounted)


def _raise_one_coefficient_of(surface, key, degree):
    """A corruption adding 1 to the q^degree coefficient of row ``key`` of
    what ``quot.<surface>`` builds."""

    def corrupt(monkeypatch):
        original = getattr(quot, surface)

        def raised(*orders):
            series = original(*orders)
            rows = dict(series.rows)
            rows[key] = list(rows[key])
            rows[key][degree] += 1
            return QSeries.from_rows(series.variables, series.truncation, rows)

        monkeypatch.setattr(quot, surface, raised)

    return corrupt


# bound here, since a test may have replaced the module's name for it
_one_colour_counts = partitions._one_colour_counts


def _clear_colouring_caches():
    partitions._coloured_tops.clear()
    _one_colour_counts.cache_clear()


@pytest.mark.parametrize(
    "corrupt, check, only",
    [
        (_offset_h3_by_L, "stratification closes on the punctual motive", True),
        # the exponential identity applies the same operator and fails too
        (_double_second_derivative,
         "second-order operator identity for fixed small size 2", False),
        (_miscount_one_flag_pair, "one-gap series equals the flag oracle", True),
        (_miscount_one_colour_of_the_rank_box,
         "rank series equals the colouring oracle", True),
        # the exponential-operator and fq2 checks read the same series
        (_raise_one_coefficient_of("q_surface", (1,), 3),
         "geometric-series identity for the unnested rank table", False),
        (_raise_one_coefficient_of("fq_surface", (1, 1), 2),
         "functional equation for the one-gap rank table", False),
    ],
    ids=["strata", "fq2", "flag-oracle", "colouring-oracle", "q-surface", "fq-surface"],
)
def test_corrupted_construction_fails_its_verify_check(
    monkeypatch, capsys, corrupt, check, only
):
    # each check compares two constructions, so breaking one of them is a
    # FAIL line and exit 1, not an internal error.  The colouring tables
    # are cached per box: clear them so the corruption is seen, and again
    # so no corrupted table outlives the test.
    _clear_colouring_caches()
    corrupt(monkeypatch)
    try:
        assert main(["verify"]) == 1
    finally:
        _clear_colouring_caches()
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert "FAIL " + check in failed
    if only:
        assert failed == ["FAIL " + check]
    assert err == ""


def test_corrupted_rank_one_table_fails_globalize(monkeypatch, capsys):
    # the transfer matrix builds globalize's rank-one table; the engine
    # cross-check behind it must catch a single wrong entry.
    original = partitions._nested_pair_rows

    def corrupted(max1, max2):
        rows = original(max1, max2)
        rows[1][2] += 1
        return rows

    monkeypatch.setattr(surfaces, "_nested_pair_rows", corrupted)
    surfaces.punctual_nested_table.cache_clear()
    try:
        argv = ["globalize", "--rank", "2", "--n1", "2", "--n2", "4", "--chi", "1"]
        assert main(argv) == 3
    finally:
        surfaces.punctual_nested_table.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("internal consistency check failed:")


def test_corrupted_engine_form_fails_globalize(monkeypatch, capsys):
    # the other side of the same cross-check: one wrong numerator
    # coefficient of the largest-gap form must be caught too
    original = surfaces.rational_form

    def corrupted(k, r=1):
        form = original(k, r)
        if k != (2,):
            return form
        numerator = list(form.numerator)
        numerator[0] += 1
        return RationalForm(numerator, form.denominator)

    monkeypatch.setattr(surfaces, "rational_form", corrupted)
    surfaces.punctual_nested_table.cache_clear()
    try:
        argv = ["globalize", "--rank", "2", "--n1", "2", "--n2", "4", "--chi", "1"]
        assert main(argv) == 3
    finally:
        surfaces.punctual_nested_table.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith(
        "internal consistency check failed: power-structure/engine mismatch"
    )


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
        ["motive", "--nesting", "2,5", "--order", "-3"],
        ["motive", "--nesting", "2,5", "--order", "7"],
        ["motive", "--strata", "6", "--order", "7"],
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
    with pytest.raises(SystemExit) as exc:
        main(["motive", "--series", series, "--order", "-1"])
    assert exc.value.code == 2
    assert "expected an integer >= 0" in capsys.readouterr().err
    code, payload = run_json(capsys, ["motive", "--series", series, "--order", "0"])
    assert code == 0
    assert len(payload["coefficients"]) == 1


def test_planted_error_in_closed_series_fails(capsys, monkeypatch):
    numerator, denominator = motives._CLOSED_SERIES[3]
    planted = (numerator[0],) + (numerator[1] + 1,) + numerator[2:]
    monkeypatch.setitem(motives._CLOSED_SERIES, 3, (planted, denominator))
    with pytest.raises(AssertionError):
        motives.series_3bullet(8)
    assert main(["motive", "--series", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal consistency check failed: "
        "closed form disagrees with termwise build\n"
    )


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


def test_verify_prints_the_library_suite_in_order(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "all identities hold"
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert [line[len("PASS "):] for line in lines[:-1]] == [
        name for name, _ in quot.identity_suite()
    ]


def test_verify_runs_the_numerator_recurrence_once(monkeypatch, capsys):
    # the identities span the gaps 0..4 and ask for the largest first, so
    # one run on (4,) fills the numerator table for every smaller gap
    monkeypatch.setattr(engine, "_numerators", ((1,),))
    budgets = []
    original = engine._numerator_rows

    def recording(paths, budget, *rest):
        budgets.append(budget)
        return original(paths, budget, *rest)

    monkeypatch.setattr(engine, "_numerator_rows", recording)
    assert main(["verify"]) == 0
    assert budgets == [(4,)]


def test_verify_builds_each_shared_series_once(monkeypatch, capsys):
    # Q(q,s) and FQ(q,s,v) each serve several checks
    built = []

    def counting(name):
        original = getattr(quot, name)

        def build(*sizes):
            built.append(name)
            return original(*sizes)
        return build

    for name in ("fq_surface", "q_surface"):
        monkeypatch.setattr(quot, name, counting(name))
    assert main(["verify"]) == 0
    assert sorted(built) == ["fq_surface", "q_surface"]


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


HANDLER_ARGVS = {
    "fz-D": ["fz", "--D", "3"],
    "fz-k": ["fz", "--k", "1,2"],
    "fq": ["fq", "--r", "2", "--D", "2"],
    "oracle": ["oracle", "--nesting", "2,4"],
    "motive-nesting": ["motive", "--nesting", "3,5"],
    "motive-strata": ["motive", "--strata", "6"],
    "motive-series": ["motive", "--series", "2", "--order", "4"],
    "globalize": ["globalize", "--rank", "1", "--n1", "2", "--n2", "4",
                  "--chi", "3", "--coeff", "0,1"],
    "verify": ["verify"],
    "tables": ["tables", "--max-gap", "2", "--out"],
}


@pytest.mark.parametrize("argv", HANDLER_ARGVS.values(), ids=HANDLER_ARGVS)
def test_handlers_return_a_record_and_print_nothing(capsys, tmp_path, argv):
    # main alone prints an outcome and picks the exit code
    if argv[0] == "tables":
        argv = argv + [str(tmp_path / "t")]
    args = cli.build_parser().parse_args(argv)
    outcome = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert type(outcome) is cli.Outcome
    assert outcome.code == 0
    assert outcome.payload["command"] == argv[0]
    assert outcome.text and outcome.rows


def parse_exit(parse, argv, capsys):
    """Exit code and captured output of a parse that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr()


#: one valid call per subcommand, with a trailing argument no parser knows
BOGUS_CALLS = [
    (argv + ["t"] if argv[-1] == "--out" else argv) + ["--bogus"]
    for argv in HANDLER_ARGVS.values()
]


@pytest.mark.parametrize(
    "argv",
    [*BOGUS_CALLS, ["-h"], [], ["bogus"]],
    ids=lambda argv: "_".join(argv) or "none",
)
def test_main_reports_as_the_full_parser(capsys, argv):
    # main parses with the invoked subcommand's parser alone, and falls back
    # to the full one wherever the message lists every subcommand
    expected = parse_exit(cli.build_parser().parse_args, argv, capsys)
    assert expected[0] == (0 if argv == ["-h"] else 2)
    assert parse_exit(main, argv, capsys) == expected


def test_bogus_calls_cover_every_subcommand():
    assert {argv[0] for argv in BOGUS_CALLS} == set(cli.SUBCOMMANDS)


def test_a_valid_call_builds_only_its_subparser(monkeypatch, capsys):
    built = []
    full = cli.build_parser

    def recorded(only=None):
        built.append(only)
        return full(only)

    monkeypatch.setattr(cli, "build_parser", recorded)
    assert main(["fz", "--D", "2"]) == 0
    assert built == ["fz"]
    built.clear()
    parse_exit(main, ["fz", "--D", "2", "--bogus"], capsys)
    assert built == ["fz", None]


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    # the flagseries console script calls main() with no arguments
    argv = ["fz", "--D", "3", "--format", "json"]
    expected = main(argv), capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["flagseries", *argv])
    assert (main(), capsys.readouterr()) == expected


def test_cli_checks_raise_value_error(tmp_path):
    # the CLI's own checks reach main as the library's do: as a ValueError
    box = ["globalize", "--rank", "1", "--n1", "2", "--n2", "3", "--chi", "1"]
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    cases = [
        (["oracle", "--nesting", "12,40"], "oracle work estimate "),
        (["motive", "--nesting", "4,5"], "--nesting takes 2,n or 3,n"),
        (box + ["--coeff", "1,2,3"], "--coeff takes a,b"),
        (box + ["--coeff", "3,3"], "--coeff a,b needs 0 <= a <= n1"),
        (["tables", "--max-gap", "1", "--out", str(blocker / "sub")],
         "cannot write the tables to --out "),
    ]
    for argv, message in cases:
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(ValueError) as exc:
            args.func(args)
        assert str(exc.value).startswith(message), argv
    assert isinstance(exc.value.__cause__, OSError)


def test_only_main_and_emit_write_output():
    # lint-style guard: no handler prints or exits on its own
    found = {}
    for top in ast.parse(Path(cli.__file__).read_text()).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in ("print", "_emit"):
                found.setdefault(node.id, set()).add(owner)
            elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"):
                found.setdefault("sys." + node.attr, set()).add(owner)
    assert found == {
        "print": {"_emit", "main"},
        "sys.stdout": {"main"},
        "sys.stderr": {"main"},
        "_emit": {"main"},
    }


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


def test_closed_pipe_ends_quietly_with_141():
    # the read end is closed before the child starts, so its first write
    # to stdout fails, as under `flagseries fz --D 12 --format csv | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(engine.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "flagseries", "fz", "--D", "12", "--format", "csv"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


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


#: The package modules of three fresh-process requests.  A multi-gap form
#: counts the fillings of connected shapes, and a rank above 1 sums over
#: the partitions of its gap; packing integer vectors adds no module, and
#: a form's prefix is expanded without truncated series.
REQUEST_MODULES = {
    ("fz", "--D", "3"): {"cli", "engine", "forms", "kernels"},
    ("fz", "--k", "1,1"): {"cli", "engine", "forms", "kernels", "shapes"},
    ("fq", "--r", "2", "--D", "2"): {
        "cli", "engine", "forms", "kernels", "partitions",
    },
}


def test_fz_loads_only_the_modules_it_runs():
    for argv, expected in REQUEST_MODULES.items():
        code, modules = loaded_after(list(argv))
        assert code == 0
        package = {m for m in modules if m.startswith("flagseries")}
        assert package == {"flagseries"} | {f"flagseries.{m}" for m in expected}
        assert "dataclasses" not in modules
        assert "csv" not in modules  # LOADED_AFTER asks for --format json


def test_rank_forms_load_partitions_not_quot():
    # the engine builds the rank-r sum over gap multisets from partitions,
    # so fq needs no quot, and fz, which has one colour, neither module
    code, modules = loaded_after(["fq", "--r", "2", "--D", "2"])
    assert code == 0
    assert "flagseries.partitions" in modules
    assert "flagseries.quot" not in modules
    assert "dataclasses" not in modules
    code, modules = loaded_after(["fz", "--D", "3"])
    assert code == 0
    assert not {"flagseries.partitions", "flagseries.quot"} & modules


def test_motive_strata_loads_no_series():
    code, modules = loaded_after(["motive", "--strata", "5"])
    assert code == 0
    assert "flagseries.motives" in modules
    assert "flagseries.series" not in modules


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
    # the shape-class census, inversion and containment live in
    # tests/referees.py, not the package
    for name in (
        "contains",
        "count_partitions_with_k_parts",
        "enum_skew_classes",
        "insertion_count",
        "nw_path",
        "ps_inv",
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


def test_package_import_graph_has_no_cycle():
    # every relative import, at module level or inside a function, is an
    # edge: a cycle ties two modules to each other's layout and load order
    graph = {}
    for path in Path(cli.__file__).parent.glob("*.py"):
        edges = graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    edges.add(node.module.split(".")[0])
                else:
                    edges.update(alias.name for alias in node.names)
    assert {"engine", "partitions"} <= graph["quot"]
    assert {"engine", "motives", "quot", "surfaces"} <= graph["cli"]
    # forms load series only to build a QSeries, and never the reverse
    assert "forms" in graph["engine"] and "series" not in graph["engine"]
    assert "forms" not in graph["series"]
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


@pytest.mark.parametrize("raw", ["12", "ten", "-3", "0"])
@pytest.mark.parametrize(
    "argv",
    [["fz", "--k", "1,1"], ["fz", "--D", "2"], ["fq", "--r", "2", "--D", "2"]],
    ids="_".join,
)
def test_no_guard_env_value_changes_any_output(monkeypatch, capsys, raw, argv):
    # Every rational form is exact, so FLAGSERIES_GUARD is no longer read:
    # any value, well formed or not, leaves exit code and output unchanged,
    # and the parser that rejected a malformed one is gone.
    assert not hasattr(engine, "default_guard")
    monkeypatch.delenv("FLAGSERIES_GUARD", raising=False)
    expected = main(argv), capsys.readouterr()
    monkeypatch.setenv("FLAGSERIES_GUARD", raw)
    assert (main(argv), capsys.readouterr()) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["fz", "--D", "2", "--jobs", "2"],
        *(["fz", "--D", "4", "--guard", guard] for guard in ("-10", "0", "x", "5")),
        ["fz", "--D", "3", "--guard", "5"],
        ["fz", "--k", "1,1", "--guard", "5"],
        ["fq", "--r", "2", "--D", "2", "--guard", "5"],
    ],
    ids="_".join,
)
def test_removed_guard_and_jobs_options_exit_2(argv):
    # --guard (once fz --k only) and --jobs are gone, so argparse rejects
    # every value in every mode
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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
