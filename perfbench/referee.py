"""Output checks for every benchmark request, run outside the timed region.

The series arithmetic here is written independently of ``flagseries``:
partition powers come from the divisor-sum recurrence and rational forms
are re-expanded by strided prefix sums.  The only ``flagseries`` code used
is the brute-force enumeration in ``flagseries.partitions``, which is the
referee the package itself is tested against.  Each check returns None
when the output is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
PUBLISHED_ONE_GAP = {int(d): v for d, v in REFERENCE["one_gap_numerators"].items()}
DEL_PEZZO_COUNT = REFERENCE["del_pezzo_rank6_count_6_12"]

#: Highest n at which the brute-force oracles are consulted.
ORACLE_N = 3


@lru_cache(maxsize=None)
def partition_power(k: int, n: int) -> tuple:
    """Coefficients of prod_j (1 - q^j)^(-k) up to q^n, from
    m a(m) = k sum_{j=1}^{m} sigma(j) a(m - j)."""
    sigma = [0] + [sum(d for d in range(1, j + 1) if j % d == 0) for j in range(1, n + 1)]
    a = [1] + [0] * n
    for m in range(1, n + 1):
        a[m] = k * sum(sigma[j] * a[m - j] for j in range(1, m + 1)) // m
    return tuple(a)


def expand(numerator, denominator, n):
    """numerator / prod_j (1 - q^j)^e_j up to q^n; ``denominator`` is a
    list of [j, e] pairs."""
    out = [0] * (n + 1)
    for i, c in enumerate(numerator[: n + 1]):
        out[i] = c
    for j, e in denominator:
        for _ in range(e):
            for i in range(j, n + 1):
                out[i] += out[i - j]
    return out


def times(a, b, n):
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n + 1)]


@lru_cache(maxsize=None)
def coloured_counts(r: int, d: int, n_max: int) -> tuple:
    from flagseries.partitions import count_coloured_flags

    return tuple(count_coloured_flags(r, (n, n + d)) for n in range(n_max + 1))


def _ints(values):
    return [int(v) for v in values]


def _rational_vs_prefix(out, rank):
    """The CLI's rational form, times Z^rank, must re-expand to its own
    series prefix (the two come from separate engine calls)."""
    prefix = _ints(out["series_prefix"])
    n = len(prefix) - 1
    series = times(expand(out["numerator"], out["denominator"], n), partition_power(rank, n), n)
    if series != prefix:
        return "rational form does not re-expand to the series prefix"
    return None


def check_fz_D(req, out):
    d = req["D"]
    published = PUBLISHED_ONE_GAP[d]
    if out.get("D") != d or out["numerator"] != published:
        return f"P_{d} differs from the published numerator"
    if out["denominator"] != [[j, 1] for j in range(1, d + 1)]:
        return f"P_{d} has a denominator other than prod_(j<={d}) (1 - q^j)"
    if out["numerator"][0] != partition_power(1, d)[d]:
        return f"P_{d}(0) != p({d})"
    if sum(out["numerator"]) != 1:
        return f"P_{d}(1) != 1"
    if len(out["series_prefix"]) != req["prefix"] + 1:
        return "series prefix has the wrong length"
    return _rational_vs_prefix(out, 1)


def check_fz_k(req, out):
    from flagseries.partitions import count_nested_flags

    k = req["k"]
    if out.get("k") != k:
        return "answer is for another gap vector"
    if len(out["series_prefix"]) != req["prefix"] + 1:
        return "series prefix has the wrong length"

    def sizes(n):
        acc = [n]
        for g in k:
            acc.append(acc[-1] + g)
        return tuple(acc)

    oracle = [count_nested_flags(sizes(n)) for n in range(ORACLE_N + 1)]
    if _ints(out["series_prefix"][: ORACLE_N + 1]) != oracle:
        return "series prefix differs from count_nested_flags"
    return _rational_vs_prefix(out, 1)


def check_rank_forms(req, out):
    d = req["D"]
    if [f["r"] for f in out["forms"]] != req["r"]:
        return f"rank forms for D={d} answer other ranks"
    for form in out["forms"]:
        r = form["r"]
        if form["denominator"] != [[j, min(r, d // j)] for j in range(1, d + 1)]:
            return f"rank-{r} form for D={d} has a non-canonical denominator"
        ratio = expand(form["numerator"], form["denominator"], ORACLE_N)
        series = times(ratio, partition_power(r, ORACLE_N), ORACLE_N)
        if series != list(coloured_counts(r, d, ORACLE_N)):
            return f"rank-{r} form for D={d} differs from count_coloured_flags"
    return None


def check_fq_prefix(req, out, rank_forms):
    r, d, n = req["r"], req["D"], req["prefix"]
    prefix = out["prefix"]
    if len(prefix) != n + 1:
        return "fq_rD prefix has the wrong length"
    top = min(n, ORACLE_N)
    if prefix[: top + 1] != list(coloured_counts(r, d, top)):
        return f"fq_rD({r}, {d}) differs from count_coloured_flags"
    form = rank_forms.get((r, d))
    if form is not None:
        series = times(expand(form["numerator"], form["denominator"], n), partition_power(r, n), n)
        if series != prefix:
            return f"fq_rD({r}, {d}) disagrees with rational_form_rD({r}, {d})"
    return None


def check_globalize(req, out):
    """Diagonal and row 0 of the powered table only see unnested coloured
    partitions, so both equal the coefficients of Z^(rank * chi)."""
    n1, n2 = req["n1"], req["n2"]
    expected = partition_power(req["rank"] * req["chi"], n2)
    if out["diagonal"] != list(expected[: n1 + 1]):
        return "global table diagonal differs from Z^(rank*chi)"
    if out["row0"] != list(expected):
        return "global table row 0 differs from Z^(rank*chi)"
    return None


def check_dp6(req, out):
    if not 2 <= out["exponent"] <= 12:
        return "dP6 exponent outside the scanned range"
    if out["count"] != DEL_PEZZO_COUNT:
        return "dP6 rank-6 (6,12) count differs from the published value"
    return None


def check_verify(req, out):
    results = out["results"]
    if len(results) < 7 or not out["all_ok"] or not all(r["ok"] for r in results):
        return "verify reported a failed identity"
    if out["exit"] != 0:
        return "verify exited nonzero"
    return None


SESSION_CHECKS = {
    "rank_forms": check_rank_forms,
    "globalize": check_globalize,
    "dp6": check_dp6,
    "verify": check_verify,
}


def check_cli(req, out):
    return check_fz_D(req, out) if req["kind"] == "fz_D" else check_fz_k(req, out)


def check_session(reqs, outs):
    """Reasons, one per request (None when right), for a library session."""
    rank_forms = {
        (form["r"], req["D"]): form
        for req, out in zip(reqs, outs)
        if req["kind"] == "rank_forms" and out is not None
        for form in out["forms"]
    }
    reasons = []
    for req, out in zip(reqs, outs):
        if out is None:
            reasons.append("request raised")
        elif req["kind"] == "fq_prefix":
            reasons.append(check_fq_prefix(req, out, rank_forms))
        else:
            reasons.append(SESSION_CHECKS[req["kind"]](req, out))
    return reasons
