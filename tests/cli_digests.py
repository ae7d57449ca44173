"""The command line's byte-identity gate: a list of commands and one sha256
per command, taken over its exit code, stdout and stderr.

The digests in ``cli_digests.json`` freeze the outputs of the commit that
generated them.  They are a regression check, not a referee: a change that
alters an output on purpose regenerates the file and names each changed
command.  Regenerate from the repository root with

    PYTHONPATH=src python tests/cli_digests.py

Every command runs through ``cli.main`` in process, after every package
cache is cleared, so no output can depend on what ran before it.
``tables`` writes into a fresh temporary directory, and its digest covers
the files it writes too.  Argparse words its own rejections (bad or removed
options) per Python version, and wraps them to ``COLUMNS``, which is fixed
at 80 here; those digests were taken under Python 3.11.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from flagseries import cli, engine, partitions

DIGESTS = Path(__file__).with_name("cli_digests.json")

#: gap vectors of ``tables`` and of the multi_gap benchmark workload
GAP_VECTORS = (
    "1,1", "1,1,1", "1,1,1,1", "1,1,1,1,1", "1,1,1,1,1,1", "1,2", "2,1", "2,2",
    "1,1,1,2,2", "2,1,1,1,2", "1,1,2,2", "3,1,1,1", "1,1,1,1,2", "2,1,1,1,1",
)
#: gap vectors whose components are mostly counted through a symmetric
#: image of another shape (``shapes.component_fillings``)
ORBIT_VECTORS = ("3,3,3", "2,2,2,2", "1,1,1,1,1,1,1,1", "1,2,3,2")
#: the benchmark's globalized boxes (rank, n1, n2)
GLOBAL_BOXES = ((2, 8, 16), (4, 6, 12), (6, 4, 8))
#: boxes (rank, n1, n2, chi) at the edges of the series row product: a
#: single leading row, a square box, a high power and a long row
EDGE_BOXES = ((3, 0, 9, 5), (2, 5, 5, 7), (5, 4, 10, 11), (1, 6, 24, 2))


def _commands():
    fz = [["fz", "--D", str(D)] for D in range(1, 13)]
    fz += [["fz", "--k", k] for k in GAP_VECTORS + ORBIT_VECTORS]
    fz += [["fz", "--D", "5", "--prefix", p] for p in ("0", "30")]
    fq = [["fq", "--r", str(r), "--D", str(D)] for r in range(1, 7) for D in range(1, 11)]
    fq += [["fq", "--r", "3", "--D", "4", "--prefix", "20"]]
    globalize = [
        ["globalize", "--rank", str(r), "--n1", str(n1), "--n2", str(n2),
         "--chi", str(chi), "--coeff", f"{n1},{n2}"]
        for r, n1, n2 in GLOBAL_BOXES for chi in (1, 12)
    ]
    # the del Pezzo headline count: rank 6, sizes (6, 12), chi(dP6) = 6
    globalize += [
        ["globalize", "--rank", "6", "--n1", "6", "--n2", "12", "--chi", "6",
         "--coeff", "6,12"],
        ["globalize", "--rank", "1", "--n1", "3", "--n2", "5", "--chi", "0"],
    ]
    globalize += [
        ["globalize", "--rank", str(r), "--n1", str(n1), "--n2", str(n2),
         "--chi", str(chi)]
        for r, n1, n2, chi in EDGE_BOXES
    ]
    motive = [
        ["motive", "--series", "2"],
        ["motive", "--series", "3"],
        ["motive", "--series", "3", "--order", "20"],
        ["motive", "--nesting", "2,4"],
        ["motive", "--nesting", "3,5"],
        ["motive", "--strata", "6"],
    ]
    oracle = [
        ["oracle", "--nesting", "2,4"],
        ["oracle", "--nesting", "2,3,4"],
        ["oracle", "--nesting", "1,3", "--rank", "3"],
    ]
    every_format = [
        ["fz", "--D", "6", "--prefix", "20"],
        ["fz", "--k", "1,2", "--prefix", "20"],
        ["fq", "--r", "2", "--D", "5", "--prefix", "6"],
        ["globalize", "--rank", "2", "--n1", "3", "--n2", "6", "--chi", "4"],
        ["motive", "--series", "2", "--order", "6"],
        ["motive", "--nesting", "2,3"],
        ["motive", "--strata", "5"],
        ["oracle", "--nesting", "2,4", "--rank", "2"],
        ["verify"],
        ["tables", "--max-gap", "10", "--out", "tables"],
    ]
    rejected = [
        ["fz", "--D", "0"],
        ["fz", "--D", "2", "--k", "1"],
        ["fz", "--k", "0,0"],
        ["fz", "--D", "2", "--prefix", "-1"],
        ["fz", "--D", "4", "--guard", "5"],
        ["fz", "--D", "2", "--jobs", "2"],
        ["fq", "--r", "0", "--D", "2"],
        ["globalize", "--rank", "1", "--n1", "2", "--n2", "4", "--chi", "1",
         "--coeff", "3,3"],
        ["globalize", "--rank", "1", "--n1", "2", "--n2", "4", "--chi", "1",
         "--coeff", "1"],
        ["globalize", "--rank", "1", "--n1", "4", "--n2", "2", "--chi", "1"],
        ["oracle", "--nesting", "30,60"],
        ["oracle", "--nesting", "3,2"],
        ["motive", "--nesting", "4,5"],
        ["motive", "--nesting", "2,4", "--order", "3"],
    ]
    commands = [argv + ["--format", "json"] for argv in fz + fq + globalize + motive + oracle]
    commands += [argv + ["--format", f] for argv in every_format for f in ("text", "json", "csv")]
    return commands + rejected


COMMANDS = _commands()


def key(argv):
    return " ".join(argv)


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("flagseries."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    engine._numerators = ()
    partitions._coloured_tops.clear()


def run(argv):
    """Exit code, stdout, stderr and written files of one command, run cold."""
    _clear_caches()
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(here)
        files = {
            str(path.relative_to(tmp)): path.read_text()
            for path in sorted(Path(tmp).rglob("*")) if path.is_file()
        }
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def digest(argv):
    record = json.dumps(run(argv), sort_keys=True)
    return hashlib.sha256(record.encode()).hexdigest()


def digests():
    return {key(argv): digest(argv) for argv in COMMANDS}


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
    print(f"wrote {len(COMMANDS)} digests to {DIGESTS}")
