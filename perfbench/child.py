"""Request processes started by ``run.py``; not meant to be run by hand.

    child.py session [--trace]   library session: JSON request list on stdin
    child.py cli ARGS...         one traced ``flagseries`` CLI request

Both print one JSON object on stdout.  ``flagseries`` is imported from the
``PYTHONPATH`` the parent sets, and its ``__file__`` is reported back so
the parent can check which copy ran.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import flagseries
from flagseries import cli, quot, surfaces

from spans import Tracer, patched_bindings


def _rank_forms(req):
    forms = []
    for r in req["r"]:
        rf = quot.rational_form_rD(r, req["D"])
        forms.append({
            "r": r,
            "numerator": list(rf.numerator),
            "denominator": [[j, e] for j, e in sorted(rf.denominator.items())],
        })
    return {"forms": forms}


def _fq_prefix(req):
    series = quot.fq_rD(req["r"], req["D"], req["prefix"])
    return {"prefix": [series[(n,)] for n in range(req["prefix"] + 1)]}


def _globalize(req):
    table = surfaces.punctual_nested_table(req["rank"], req["n1"], req["n2"])
    surface = surfaces.SurfaceProfile(f"chi={req['chi']}", req["chi"])
    powered = surfaces.globalize(table, surface)
    return {
        "diagonal": [powered[(a, a)] for a in range(req["n1"] + 1)],
        "row0": [powered[(0, b)] for b in range(req["n2"] + 1)],
        "terms": len(powered.coefficients),
    }


def _dp6(req):
    exponent = surfaces.resolve_dp6_exponent()
    table = surfaces.punctual_nested_table(6, 6, 12)
    powered = surfaces.globalize(table, surfaces.SurfaceProfile("dP6", exponent))
    return {"exponent": exponent, "count": powered[(6, 12)]}


def _cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _verify(req):
    code, text = _cli_json(["verify", "--format", "json"])
    out = json.loads(text)
    out["exit"] = code
    return out


HANDLERS = {
    "rank_forms": _rank_forms,
    "fq_prefix": _fq_prefix,
    "globalize": _globalize,
    "dp6": _dp6,
    "verify": _verify,
}


def session(traced):
    reqs = json.load(sys.stdin)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    results = []
    try:
        for req in reqs:
            start = time.perf_counter()
            try:
                handler = HANDLERS[req["kind"]]
                out = tracer.root(handler, req) if tracer else handler(req)
                error = None
            except Exception:
                out, error = None, traceback.format_exc(limit=3)
            results.append({"seconds": time.perf_counter() - start, "out": out, "error": error})
    finally:
        if tracer:
            tracer.uninstall()
    return {
        "flagseries_file": flagseries.__file__,
        "results": results,
        "trace": tracer.summary() if tracer else None,
        "left_patched": patched_bindings(),
    }


def traced_cli(argv):
    tracer = Tracer()
    tracer.install()
    try:
        code, text = tracer.root(_cli_json, argv)
    finally:
        tracer.uninstall()
    return {
        "flagseries_file": flagseries.__file__,
        "exit": code,
        "stdout": text,
        "trace": tracer.summary(),
        "left_patched": patched_bindings(),
    }


def main(argv):
    if argv[:1] == ["session"]:
        result = session(traced=argv[1:] == ["--trace"])
    elif argv[:1] == ["cli"]:
        result = traced_cli(argv[1:])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
