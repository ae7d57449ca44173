"""Layered benchmark for flagseries.

    python3 perfbench/run.py --workload one_gap --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py for the inputs and why each pass is stratified):

  one_gap      ``fz --D d``, d in 8..9, one fresh ``python -m flagseries``
               process per request: the kernels and the engine's per-class
               placement DP, with cold caches as a CLI user has them.
  multi_gap    ``fz --k`` over compositions of 6 and 7 with four or five
               parts, and 1^6, one process per request: rp_count fillings,
               engine DP only on classes of size <= 7.
  rank_global  one library session per pass in a fresh process: rank-r
               forms, fq_rD prefixes, globalized punctual tables, the dP6
               exponent and the verify suite, sharing caches.

Every client is a closed loop with one request in flight.  Passes repeat
until the next one would end after ``--seconds``; timings are medians over
passes, and the request percentiles are medians of each pass's percentile.
Times are reported at a reference CPU speed (see ``CAL_REF_S``), with the
raw wall and set-up times printed beside them.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` one pass runs untraced
and then traced (spans.py), and the per-layer metrics are printed.  Every
output is checked by referee.py after the timed region.  The last stdout
line is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import referee
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

#: Every run ends well inside 180 s.
HARD_LIMIT_S = 170.0
#: Fresh-interpreter imports per run; setup_s is their median.
SETUP_REPS = 15
#: A traced run whose self times cover less of the root spans than this
#: spent time outside every wrapped call.
COVERAGE_FLOOR = 0.95
#: On a 2-vCPU Intel Xeon VM the CPU speed a process gets drifts by up to
#: 40 % over minutes, more than any bound worth having.  So a fixed loop
#: (``calibrate``) is timed before and after the set-up imports and after
#: every request process, and each time is reported at reference speed:
#: multiplied by CAL_REF_S over the mean of the two loop times around it.
#: CAL_REF_S is the loop's time on that VM in its fast phase; it only fixes
#: the unit.  Raw times are printed next to the scaled ones.
CAL_REF_S = 0.13

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    return "count"


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def calibrate():
    """Seconds taken by a fixed pure-Python loop with the two shapes of work
    the package spends its time on: list multiply-adds, as in the kernels,
    and dict updates keyed by tuples, as in the filling and oracle counts."""
    src = list(range(1, 257))
    dst = [0] * 512
    counts = {}
    start = time.perf_counter()
    for rep in range(4000):
        off = rep & 255
        for i in range(256):
            dst[i + off] += 3 * src[i]
        for i in range(24):
            key = (rep & 31, i, (rep * i) & 7)
            counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def run_proc(argv, env, timeout, stdin_text=""):
    """Run a child to completion; its own rusage comes from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    streams = {}

    def drain(name, stream):
        streams[name] = stream.read()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for t in readers:
        t.start()
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        try:
            proc.stdin.write(stdin_text.encode())
            proc.stdin.close()
        except BrokenPipeError:
            pass
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in readers:
        t.join()
    proc.stdout.close()
    proc.stderr.close()
    return Proc(
        code=proc.returncode,
        stdout=streams["out"].decode(errors="replace"),
        stderr=streams["err"].decode(errors="replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


@dataclass
class Pass:
    """One pass; times are at reference speed except ``raw_wall_s``."""

    wall_s: float
    raw_wall_s: float
    cpu_s: float
    rss_mb: float
    request_s: list
    reasons: list  # one per request: None when right, else why it failed
    traces: list = field(default_factory=list)

    @property
    def failed(self):
        return sum(r is not None for r in self.reasons)


class Bench:
    def __init__(self, workload, seed, seconds):
        import flagseries  # main() puts SRC first on sys.path

        self.check_file(flagseries.__file__)
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("FLAGSERIES_")}
        self.env["PYTHONPATH"] = str(SRC)
        self.warnings = []  # printed, the outputs still count as correct
        self.errors = []  # printed, and the run is not correct

    def remaining(self):
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def check_file(self, path):
        if path is None or not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"flagseries imported from {path}, not from {SRC}")

    # -- set-up -------------------------------------------------------

    def setup(self):
        info = run_proc(
            [sys.executable, "-c",
             "import json, platform, flagseries; print(json.dumps("
             "[flagseries.__file__, flagseries.KERNEL_BACKEND, platform.python_version()]))"],
            self.env, self.remaining(),
        )
        if info.code != 0:
            raise BenchError(f"cannot import flagseries:\n{info.stderr}")
        path, backend, version = json.loads(info.stdout)
        self.check_file(path)
        before = calibrate()
        times = []
        for _ in range(SETUP_REPS):
            proc = run_proc([sys.executable, "-c", "import flagseries.cli"], self.env, self.remaining())
            if proc.code != 0:
                raise BenchError(f"import flagseries.cli failed:\n{proc.stderr}")
            times.append(proc.wall_s)
        self.cal = calibrate()
        self.setup_raw_s = statistics.median(times)
        self.setup_s = self.setup_raw_s * CAL_REF_S * 2 / (before + self.cal)
        return {
            "workload": self.workload,
            "seed": self.seed,
            "kernel_backend": backend,
            "python": version,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "src_sha256": src_digest(),
        }

    # -- passes -------------------------------------------------------

    def request(self, argv, stdin_text=""):
        """Run one request process; returns it and the factor that brings
        its times to reference speed."""
        proc = run_proc(argv, self.env, self.remaining(), stdin_text)
        before, self.cal = self.cal, calibrate()
        return proc, CAL_REF_S * 2 / (before + self.cal)

    def run_pass(self, reqs, traced):
        if self.workload == "rank_global":
            return self.session_pass(reqs, traced)
        return self.cli_pass(reqs, traced)

    def cli_pass(self, reqs, traced):
        procs, scales = [], []
        for req in reqs:
            args = workloads.cli_args(req)
            argv = ([sys.executable, str(CHILD), "cli", *args] if traced
                    else [sys.executable, "-m", "flagseries", *args])
            proc, scale = self.request(argv)
            procs.append(proc)
            scales.append(scale)
        reasons, traces = [], []
        for req, proc in zip(reqs, procs):
            text = proc.stdout
            if traced and proc.code == 0:
                try:
                    wrapped = json.loads(proc.stdout)
                except ValueError as exc:
                    reasons.append(f"malformed traced output: {exc!r}")
                    continue
                self.check_file(wrapped["flagseries_file"])
                self.check_restored(wrapped)
                traces.append(wrapped["trace"])
                proc.code, text = wrapped["exit"], wrapped["stdout"]
            if proc.code != 0:
                reasons.append(f"exit {proc.code}: {proc.stderr.strip()[-300:]}")
                continue
            reasons.append(self.judge(referee.check_cli, req, text))
        request_s = [p.wall_s * k for p, k in zip(procs, scales)]
        return Pass(
            wall_s=sum(request_s),
            raw_wall_s=sum(p.wall_s for p in procs),
            cpu_s=sum(p.cpu_s * k for p, k in zip(procs, scales)),
            rss_mb=max(p.rss_mb for p in procs),
            request_s=request_s,
            reasons=reasons,
            traces=traces,
        )

    def session_pass(self, reqs, traced):
        argv = [sys.executable, str(CHILD), "session"] + (["--trace"] if traced else [])
        proc, scale = self.request(argv, json.dumps(reqs))
        result = None
        if proc.code == 0:
            try:
                result = json.loads(proc.stdout)
            except ValueError:
                pass
        if result is None or len(result["results"]) != len(reqs):
            why = f"session exit {proc.code}: {proc.stderr.strip()[-300:]}"
            return Pass(proc.wall_s * scale, proc.wall_s, proc.cpu_s * scale, proc.rss_mb,
                        [proc.wall_s * scale], [why] * len(reqs))
        self.check_file(result["flagseries_file"])
        if traced:
            self.check_restored(result)
        outs = [r["out"] for r in result["results"]]
        try:
            reasons = referee.check_session(reqs, outs)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            reasons = [f"malformed session output: {exc!r}"] * len(reqs)
        reasons = [
            r if res["error"] is None else res["error"].strip().splitlines()[-1]
            for r, res in zip(reasons, result["results"])
        ]
        return Pass(
            wall_s=proc.wall_s * scale,
            raw_wall_s=proc.wall_s,
            cpu_s=proc.cpu_s * scale,
            rss_mb=proc.rss_mb,
            request_s=[r["seconds"] * scale for r in result["results"]],
            reasons=reasons,
            traces=[result["trace"]] if traced else [],
        )

    @staticmethod
    def judge(check, req, text):
        try:
            return check(req, json.loads(text))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    def check_restored(self, result):
        if result["left_patched"]:
            self.errors.append(f"tracer left bindings patched: {result['left_patched']}")

    # -- runs ---------------------------------------------------------

    def measure(self):
        """End-to-end run: passes until the next would overrun --seconds."""
        rng = random.Random(self.seed)
        build = workloads.PASS_BUILDERS[self.workload]
        passes = []
        began = time.monotonic()
        while True:
            passes.append(self.run_pass(build(rng), traced=False))
            elapsed = time.monotonic() - began
            typical = statistics.median(p.wall_s for p in passes)
            if elapsed + typical > self.seconds or self.remaining() < 2 * typical + 5:
                break
        per_pass = len(passes[0].request_s)
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "req_p50_s": statistics.median(percentile(p.request_s, 0.5) for p in passes),
            "req_p90_s": statistics.median(percentile(p.request_s, 0.9) for p in passes),
            "peak_rss_mb": max(p.rss_mb for p in passes),
            "setup_s": self.setup_s,
        }
        over = f"median over {len(passes)} passes"
        raw = statistics.median(p.raw_wall_s for p in passes)
        notes = {
            "wall_s": f"{over}; raw {raw:.6f} s",
            "cpu_s": over,
            "req_p50_s": f"{over} of each pass's p50 of {per_pass} requests",
            "req_p90_s": f"{over} of each pass's p90 of {per_pass} requests",
            "peak_rss_mb": "max ru_maxrss over requests",
            "setup_s": f"median of {SETUP_REPS} fresh imports; raw {self.setup_raw_s:.6f} s",
        }
        return passes, metrics, notes, END_TO_END_UNITS

    def trace(self):
        """Traced run: the first pass untraced, then the same pass traced."""
        reqs = workloads.PASS_BUILDERS[self.workload](random.Random(self.seed))
        plain = self.run_pass(reqs, traced=False)
        traced = self.run_pass(reqs, traced=True)
        metrics = spans.layer_metrics(spans.merge(traced.traces))
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        if metrics["trace.coverage"] < COVERAGE_FLOOR:
            self.warnings.append(
                f"trace.coverage {metrics['trace.coverage']:.4f} < {COVERAGE_FLOOR}: "
                "time ran outside every span, spans were missed"
            )
        notes = {
            "engine.memo_hit_ratio": f"base: {metrics['engine.relative_dense_calls']} _relative_dense calls",
            "kernels.terms": "computed from argument lengths",
            "trace.overhead_s": f"traced {traced.wall_s:.3f} s - untraced {plain.wall_s:.3f} s"
            " at reference speed",
        }
        units = {name: layer_unit(name) for name in metrics}
        return [plain, traced], metrics, notes, units


def percentile(values, q):
    """Nearest-rank percentile of one pass.  Every pass of a workload holds
    the same strata, so it picks the same kind of request in each, and the
    median over passes does not move when a run fits one more pass."""
    ranked = sorted(values)
    return ranked[max(math.ceil(q * len(ranked)), 1) - 1]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest():
    """Content hash of the package sources, a commit id for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "flagseries").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix in (".py", ".pyx", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "flagseries" / "__init__.py").is_file():
        print(f"error: no flagseries package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        bench = Bench(args.workload, args.seed, args.seconds)
        env = bench.setup()
        print("env: " + json.dumps(env, sort_keys=True), flush=True)
        passes, metrics, notes, units = bench.trace() if args.trace else bench.measure()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p.reasons) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for reason in p.reasons:
            if reason is not None:
                print(f"FAILED request: {reason}")
    for w in bench.warnings:
        print(f"warning: {w}")
    for e in bench.errors:
        print(f"error: {e}")
    print(f"fail_ratio {failed / attempted:.4f}  ({failed} failed of {attempted} attempted)")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:>16.6f} {units[name]}{note}")
    result = {
        "correct": failed == 0 and not bench.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
