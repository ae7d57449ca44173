"""The benchmark's traced session still binds every name it reads.

``perfbench/spans.py`` wraps functions of the package by name, and
``perfbench/child.py`` calls the package by name.  A refactor that removes
or renames one of those names breaks the traced benchmark; this test runs
one small request of each session kind under the tracer, with perfbench's
own lists, so the change that breaks the benchmark fails here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import child  # noqa: E402
import spans  # noqa: E402

#: one small request per ``child.HANDLERS`` kind; a new kind needs one here
REQUESTS = {
    "rank_forms": {"D": 3, "r": [1, 2]},
    "fq_prefix": {"r": 2, "D": 3, "prefix": 8},
    "globalize": {"rank": 2, "n1": 2, "n2": 4, "chi": 3},
    "dp6": {},
    "verify": {},
}


def test_traced_session_binds_every_name_and_restores_them():
    tracer = spans.Tracer()
    tracer.install()
    try:
        outs = {
            kind: tracer.root(handler, dict(REQUESTS[kind], kind=kind))
            for kind, handler in child.HANDLERS.items()
        }
    finally:
        tracer.uninstall()
    assert spans.patched_bindings() == []
    assert outs["dp6"]["exponent"] == 6
    assert outs["verify"]["exit"] == 0
    assert tracer.stats
