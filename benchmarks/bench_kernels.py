"""Benchmark the compiled kernels against the pure-Python fallback.

Micro-benchmarks import both kernel modules directly; the end-to-end row
re-runs a one-gap rational-form extraction in a subprocess with
FLAGSERIES_PURE=1 so the import-time backend selection is exercised too.

Run as:  python benchmarks/bench_kernels.py [--gap 8] [--skip-e2e]
"""

import argparse
import os
import random
import subprocess
import sys
import time

from flagseries.kernels import _pure

try:
    from flagseries.kernels import _speedups
except ImportError:
    _speedups = None


def timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_micro():
    rng = random.Random(20240901)
    n = 600
    a = [rng.randrange(-(10**18), 10**18) for _ in range(n + 1)]
    b = [rng.randrange(-(10**18), 10**18) for _ in range(n + 1)]
    unit = [1] + [rng.randrange(-50, 50) for _ in range(n)]
    rows = []

    backends = [("pure", _pure)]
    if _speedups is not None:
        backends.append(("cython", _speedups))

    for name, mod in backends:
        rows.append((f"mul_trunc n={n} ({name})", timed(lambda: mod.mul_trunc(a, b, n))))
        rows.append((f"inv_trunc n={n} ({name})", timed(lambda: mod.inv_trunc(unit, n))))

        def saxpy():
            dst = [0] * (n + 1)
            for shift in range(0, n, 7):
                mod.addmul_shifted(dst, a, shift, -1, n)

        rows.append((f"addmul_shifted sweep ({name})", timed(saxpy)))
    return rows


def bench_end_to_end(gap):
    script = (
        "import time, flagseries.kernels as k; "
        "from flagseries.engine import rational_form_D; "
        "t = time.perf_counter(); rational_form_D(%d); "
        "print(k.BACKEND, time.perf_counter() - t)" % gap
    )
    rows = []
    # Without the extension both settings select the pure backend.
    for pure in ("0", "1") if _speedups is not None else ("1",):
        env = dict(os.environ, FLAGSERIES_PURE=pure)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        if out.returncode:
            sys.exit(
                f"rational_form_D({gap}) with FLAGSERIES_PURE={pure} failed "
                f"(exit {out.returncode}):\n{out.stderr}"
            )
        backend, elapsed = out.stdout.split()
        rows.append((f"rational_form_D({gap}) [{backend}]", float(elapsed)))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--gap", type=int, default=8)
    parser.add_argument("--skip-e2e", action="store_true")
    args = parser.parse_args()

    rows = bench_micro()
    if not args.skip_e2e:
        rows += bench_end_to_end(args.gap)
    width = max(len(name) for name, _ in rows)
    for name, elapsed in rows:
        print(f"{name:<{width}}  {elapsed * 1000:10.2f} ms")
    if _speedups is None:
        print("note: compiled kernels unavailable, pure backend only")


if __name__ == "__main__":
    main()
