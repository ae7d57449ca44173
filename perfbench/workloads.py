"""Seeded request lists for the three benchmark workloads.

A workload is a stream of passes; each pass is a list of requests drawn
from ``random.Random(seed)``, so one seed always yields the same stream.
Requests are plain JSON-able dicts: the CLI workloads turn them into
``python -m flagseries`` argument lists, and the library session receives
them on stdin.

Each pass is stratified so that passes of different seeds do the same
amount of work: the seed chooses inputs inside each stratum and the order,
not how many heavy inputs a pass holds.  Without that, the spread of a
timing across seeds would measure the draw, not the program.
"""

from __future__ import annotations

import itertools

#: one_gap: every pass asks for each gap once, in a seeded order.  D = 10
#: (8-12 s a request on a 2-vCPU Xeon VM, pure kernels) is left out: with it
#: a run holds two or three passes, too few for a steady median when the CPU
#: speed drifts (see run.CAL_REF_S).
ONE_GAP_D = (8, 9)
#: Range of the ``--prefix`` drawn for each CLI request.
PREFIX_RANGE = (8, 16)

#: multi_gap: compositions in every pass.  1^6 is the case rp_count
#: dominates.  The two of 7 with five parts are fixed: their costs differ by
#: up to 1.7x, and drawing them made the pass cost depend on the seed.  1^7
#: (15-23 s a request on the same VM) is left out for the reason D = 10 is.
MULTI_GAP_FIXED = ((1,) * 6, (1, 1, 1, 2, 2), (2, 1, 1, 1, 2))
#: multi_gap strata (K, number of parts): one composition drawn from each.
#: Both cost less than 1^6 and the fixed K = 7 ones more, so every pass has
#: 1^6 as its median request and a fixed composition as its slowest.
MULTI_GAP_STRATA = ((6, 4), (6, 5))

#: rank_global: every (r, D) rank form once per pass, one request per D
#: asking for every r in a seeded order.  The request for the largest D
#: opens the pass with the largest r, so every later rank form, fq_rD prefix
#: and table cross-check reuses its engine memo the way a long-lived caller
#: does, and the memo work of a pass does not depend on the seeded order.
#: One request per (r, D) would put a pass's median request among memo hits
#: of 10-20 ms whose order flips from run to run.
RANK_R = (2, 3, 4)
RANK_D = (5, 6, 7, 8)
FQ_PREFIXES_PER_PASS = 2
FQ_PREFIX_RANGE = (6, 10)
#: Globalized tables (rank, n1, n2), one of each per pass; the Euler
#: characteristic is drawn.  Fixed boxes keep the colouring-oracle work of a
#: pass the same for every seed: it grows steeply with rank and box.
GLOBAL_TABLES = ((2, 8, 16), (4, 6, 12), (6, 4, 8))
GLOBAL_CHI = (1, 12)

WORKLOADS = ("one_gap", "multi_gap", "rank_global")


def compositions(total: int, parts: int):
    """All compositions of ``total`` into ``parts`` positive parts, sorted."""
    out = []
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return sorted(out)


def one_gap_pass(rng):
    gaps = list(ONE_GAP_D)
    rng.shuffle(gaps)
    return [
        {"kind": "fz_D", "D": d, "prefix": rng.randint(*PREFIX_RANGE)}
        for d in gaps
    ]


def multi_gap_pass(rng):
    ks = list(MULTI_GAP_FIXED)
    ks.extend(rng.choice(compositions(total, parts)) for total, parts in MULTI_GAP_STRATA)
    rng.shuffle(ks)
    return [
        {"kind": "fz_k", "k": list(k), "prefix": rng.randint(*PREFIX_RANGE)}
        for k in ks
    ]


def rank_global_pass(rng):
    top_r, top_d = max(RANK_R), max(RANK_D)
    rest = [r for r in RANK_R if r != top_r]
    first = {"kind": "rank_forms", "D": top_d, "r": [top_r] + rng.sample(rest, len(rest))}
    reqs = [
        {"kind": "rank_forms", "D": d, "r": rng.sample(RANK_R, len(RANK_R))}
        for d in RANK_D
        if d != top_d
    ]
    for _ in range(FQ_PREFIXES_PER_PASS):
        reqs.append({
            "kind": "fq_prefix",
            "r": rng.choice(RANK_R),
            "D": rng.choice(RANK_D),
            "prefix": rng.randint(*FQ_PREFIX_RANGE),
        })
    for rank, n1, n2 in GLOBAL_TABLES:
        reqs.append({
            "kind": "globalize", "rank": rank, "n1": n1, "n2": n2,
            "chi": rng.randint(*GLOBAL_CHI),
        })
    reqs.append({"kind": "dp6"})
    reqs.append({"kind": "verify"})
    rng.shuffle(reqs)
    return [first] + reqs


PASS_BUILDERS = {
    "one_gap": one_gap_pass,
    "multi_gap": multi_gap_pass,
    "rank_global": rank_global_pass,
}


def cli_args(req):
    """``flagseries`` CLI arguments for a one_gap or multi_gap request."""
    if req["kind"] == "fz_D":
        gap = ["--D", str(req["D"])]
    elif req["kind"] == "fz_k":
        gap = ["--k", ",".join(map(str, req["k"]))]
    else:
        raise ValueError(f"not a CLI request: {req['kind']}")
    return ["fz", *gap, "--prefix", str(req["prefix"]), "--format", "json"]
