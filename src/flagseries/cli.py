"""Batch command-line front end.

Every subcommand returns an ``Outcome``, which ``main`` alone prints as
text, canonical JSON or CSV; every user error reaches it as a ``ValueError``.
Integer payloads that third-party JSON consumers might round (counts,
Euler numbers, series coefficients) are serialized as decimal strings;
rational-form numerators stay plain integers.

Exit codes: 0 success (and, for ``verify``, all identities hold);
1 a ``verify`` identity failed; 2 parameter validation failure (or a
``tables --out`` that cannot be written);
3 internal consistency check failure (two independent constructions of
the same answer disagree, which is a bug in the program, not in the input);
141 the reader closed standard output before it was written (128 + SIGPIPE,
what shells report for a pipe closed early), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import sys
from collections import namedtuple

from . import engine

#: A command's JSON payload, text lines, CSV rows and exit code (1: verify failed)
Outcome = namedtuple("Outcome", "payload text rows code", defaults=(0,))


def _emit(fmt, outcome):
    if fmt == "json":
        out = json.dumps(outcome.payload, sort_keys=True, indent=2)
    elif fmt == "csv":
        import csv  # only csv output loads it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(outcome.rows)
        out = buf.getvalue().rstrip("\n")
    else:
        out = "\n".join(outcome.text)
    print(out)


def _parse_int_list(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _gap_vector(text):
    gaps = _parse_int_list(text)
    if sum(gaps) < 1:
        raise argparse.ArgumentTypeError(f"expected a gap sum >= 1: {text!r}")
    return gaps


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1: {text!r}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0: {text!r}")
    return value


def _form_outcome(args, payload, rf, rank, ratio_to):
    """The outcome of a rational form of (series / Z^rank) with the series
    prefix: the form expanded to ``--prefix`` with Z^rank in its denominator."""
    series = rf.expand(args.prefix, z_power=rank)
    payload.update(rf.to_json_dict())
    payload["series_prefix"] = [str(c) for c in series.dense()]
    text = [
        f"ratio to the {ratio_to}: {rf!r}",
        "series prefix: " + ", ".join(payload["series_prefix"]),
    ]
    rows = [["degree", "numerator"]] + [
        [i, c] for i, c in enumerate(payload["numerator"])
    ]
    return Outcome(payload, text, rows)


def _cmd_fz(args):
    if args.k is not None:
        rf = engine.rational_form(args.k)
        payload = {"command": "fz", "k": args.k}
    else:
        rf = engine.rational_form((args.D,))
        payload = {"command": "fz", "D": args.D}
    return _form_outcome(args, payload, rf, 1, "partition series")


def _cmd_fq(args):
    rf = engine.rational_form((args.D,), args.r)
    payload = {"command": "fq", "r": args.r, "D": args.D}
    return _form_outcome(
        args, payload, rf, args.r, f"rank-{args.r} partition series power"
    )


#: Largest ``oracle`` work estimate accepted: about 2 s on a 2-vCPU VM.
ORACLE_MAX_WORK = 2 * 10**6


def _oracle_work(rank, spec):
    """Estimated cost of the brute-force oracle in microseconds.  Each
    partition of a size tries every partition of the size below it
    (building one costs about 20 tries).  A rank above one counts every
    weakly increasing vector below ``spec`` that way and convolves the
    counts rank times, about 3 microseconds a product.  Sizes past 100 are
    far beyond the cap, so p(100) stands in for their p(n)."""
    from .partitions import _increasing_vectors_below, partition_count

    def p(n):
        return partition_count(min(n, 100))

    def chains(v):
        return sum(p(n) * (20 + (p(v[i - 1]) if i else 0)) for i, n in enumerate(v))

    work = chains(spec)
    if rank == 1 or work > ORACLE_MAX_WORK:
        return work
    ways = [1]  # ways[v]: weakly increasing prefixes ending at v
    for n in spec:
        ways = list(itertools.accumulate(ways + [0] * (n + 1 - len(ways))))
    convolution = 3 * rank * sum(ways) ** 2
    if convolution > ORACLE_MAX_WORK:
        return convolution
    return convolution + sum(chains(v) for v in _increasing_vectors_below(spec))


def _cmd_oracle(args):
    from .partitions import FlagSpec, count_coloured_flags, count_nested_flags

    spec = FlagSpec(args.nesting)
    work = _oracle_work(args.rank, spec)
    if work > ORACLE_MAX_WORK:
        raise ValueError(
            f"oracle work estimate {work} exceeds the cap {ORACLE_MAX_WORK}: "
            "brute force is meant for small sizes"
        )
    if args.rank == 1:
        count = count_nested_flags(spec)
    else:
        count = count_coloured_flags(args.rank, spec)
    payload = {
        "command": "oracle",
        "nesting": list(spec),
        "rank": args.rank,
        "count": str(count),
    }
    return Outcome(payload, [str(count)], [["count"], [count]])


def _cmd_motive(args):
    from . import motives

    if args.series is None and args.order is not None:
        raise ValueError("--order applies only to --series")
    if args.nesting is not None:
        spec = tuple(args.nesting)
        if len(spec) != 2 or spec[0] not in (2, 3):
            raise ValueError("--nesting takes 2,n or 3,n")
        i, n = spec
        poly = motives.motive_2n(n) if i == 2 else motives.motive_3n(n)
        payload = {
            "command": "motive",
            "nesting": [i, n],
            "motive": poly.to_json_list(),
            "euler": str(poly(1)),
        }
        text = [repr(poly), f"euler characteristic: {payload['euler']}"]
        rows = [["power", "coefficient"]] + [
            [k, c] for k, c in enumerate(poly.coefficients)
        ]
        return Outcome(payload, text, rows)
    if args.strata is not None:
        strata = motives.motive_strata(args.strata)
        total = strata.total()
        named = [(name, getattr(strata, name))
                 for name in ("curvilinear", "h1", "h2", "h3")]
        payload = {
            "command": "motive",
            "strata": args.strata,
            "h2_split": [p.to_json_list() for p in strata.h2_split],
            "total": total.to_json_list(),
        }
        payload.update((name, p.to_json_list()) for name, p in named)
        text = [f"{name}: {p!r}" for name, p in named] + [f"total: {total!r}"]
        rows = [["stratum", "coefficients"]] + [
            [name, " ".join(map(str, p.coefficients))] for name, p in named
        ]
        return Outcome(payload, text, rows)
    builder = motives.series_2bullet if args.series == 2 else motives.series_3bullet
    order = 12 if args.order is None else args.order
    coeffs = builder(order)
    payload = {
        "command": "motive",
        "series": args.series,
        "order": order,
        "coefficients": [p.to_json_list() for p in coeffs],
    }
    text = [f"t^{n}: {p!r}" for n, p in enumerate(coeffs)]
    rows = [["t_power", "coefficients"]] + [
        [n, " ".join(map(str, p.coefficients))] for n, p in enumerate(coeffs)
    ]
    return Outcome(payload, text, rows)


def _cmd_globalize(args):
    from . import surfaces

    a, b = args.n1, args.n2
    if args.coeff is not None:
        if len(args.coeff) != 2:
            raise ValueError("--coeff takes a,b")
        a, b = args.coeff
        if not (0 <= a <= args.n1 and 0 <= b <= args.n2):
            raise ValueError("--coeff a,b needs 0 <= a <= n1 and 0 <= b <= n2")
    table = surfaces.punctual_nested_table(args.rank, args.n1, args.n2)
    surface = surfaces.SurfaceProfile(f"chi={args.chi}", args.chi)
    powered = surfaces.globalize(table, surface)
    requested = powered[(a, b)]
    rows = [["n1", "n2", "count"]]
    entries = []
    for (x, y), c in sorted(powered.coefficients.items()):
        entries.append([x, y, str(c)])
        rows.append([x, y, c])
    payload = {
        "command": "globalize",
        "rank": args.rank,
        "n1": args.n1,
        "n2": args.n2,
        "chi": args.chi,
        "requested": [a, b],
        "coefficient": str(requested),
        "table": entries,
    }
    text = [f"coefficient at ({a}, {b}): {requested}"]
    return Outcome(payload, text, rows)


def _cmd_verify(args):
    from .quot import identity_suite

    suite = identity_suite()
    results = [{"name": name, "ok": bool(check())} for name, check in suite]
    all_ok = all(r["ok"] for r in results)
    payload = {"command": "verify", "results": results, "all_ok": all_ok}
    text = [
        ("PASS " if r["ok"] else "FAIL ") + r["name"] for r in results
    ] + ["all identities hold" if all_ok else "identity failure"]
    rows = [["check", "ok"]] + [[r["name"], r["ok"]] for r in results]
    return Outcome(payload, text, rows, 0 if all_ok else 1)


def _cmd_tables(args):
    import pathlib

    one_gap = {}
    # Largest gap first: one numerator run then serves every smaller gap.
    for D in range(args.max_gap, 0, -1):
        rf = engine.rational_form((D,))
        one_gap[str(D)] = rf.to_json_dict()
    multi = {}
    for k in (
        (1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1),
        (1, 2), (2, 1), (2, 2),
    ):
        rf = engine.rational_form(k)
        multi[",".join(map(str, k))] = rf.to_json_dict()

    outdir = pathlib.Path(args.out)
    written = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, table in (
            ("one_gap_rational_forms.json", one_gap),
            ("multi_gap_rational_forms.json", multi),
        ):
            path = outdir / name
            path.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
            written.append(str(path))
    except OSError as exc:
        raise ValueError(f"cannot write the tables to --out {args.out}: {exc}") from exc

    payload = {"command": "tables", "written": written}
    return Outcome(payload, written, [["file"]] + [[w] for w in written])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flagseries",
        description=(
            "exact Euler-characteristic generating series of punctual nested "
            "Hilbert and Quot schemes of points on surfaces"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("fz", help="one-gap or multi-gap flag series and rational form")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--D", type=_positive_int, help="single gap size")
    mode.add_argument("--k", type=_gap_vector,
                      help="comma-separated gap vector, e.g. 1,2")
    p.add_argument("--prefix", type=_nonnegative_int, default=12,
                   help="highest degree of the emitted series prefix (>= 0)")
    common(p)
    p.set_defaults(func=_cmd_fz)

    p = sub.add_parser("fq", help="higher-rank one-gap series and exact rational form")
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--D", type=_positive_int, required=True)
    p.add_argument("--prefix", type=_nonnegative_int, default=12,
                   help="highest degree of the emitted series prefix (>= 0)")
    common(p)
    p.set_defaults(func=_cmd_fq)

    p = sub.add_parser("oracle", help="brute-force nested/coloured flag counts")
    p.add_argument("--nesting", type=_parse_int_list, required=True)
    p.add_argument("--rank", type=_positive_int, default=1)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("motive", help="motivic classes for small nestings")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--nesting", type=_parse_int_list)
    mode.add_argument("--strata", type=int)
    mode.add_argument("--series", type=int, choices=(2, 3))
    p.add_argument("--order", type=_nonnegative_int,
                   help="highest power of t in --series (>= 0, default 12)")
    common(p)
    p.set_defaults(func=_cmd_motive)

    p = sub.add_parser("globalize", help="global nested counts for a surface")
    p.add_argument("--rank", type=_positive_int, required=True)
    p.add_argument("--n1", type=_nonnegative_int, required=True)
    p.add_argument("--n2", type=_nonnegative_int, required=True)
    p.add_argument("--chi", type=_nonnegative_int, required=True)
    p.add_argument("--coeff", type=_parse_int_list, default=None)
    common(p)
    p.set_defaults(func=_cmd_globalize)

    p = sub.add_parser("verify", help="run the full identity suite")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tables", help="regenerate the published tables to files")
    p.add_argument("--out", required=True)
    p.add_argument("--max-gap", type=_positive_int, default=10)
    common(p)
    p.set_defaults(func=_cmd_tables)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        outcome = args.func(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal consistency check failed: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(args.format, outcome)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the interpreter's last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
