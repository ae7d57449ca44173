"""Per-module spans for the traced benchmark run, recorded from outside
the package.

``Tracer.install`` wraps the public functions of every ``flagseries``
module, plus the few private engine entry points the per-layer counters
need, and rebinds every name that refers to them in any loaded
``flagseries`` module (``quot.fz_D`` and ``cli.count_nested_flags`` are the
same objects as ``engine.fz_D`` and ``partitions.count_nested_flags``, so
patching only the defining module would miss those calls).  ``uninstall``
puts every original back.

Spans nest on a stack.  A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of one
request add up to the part of its root span that some module covered.
The kernels are called about 10^6 times per request, so spans are folded
into per-name totals as they close instead of being kept one by one.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

MODULES = (
    "cli",
    "engine",
    "shapes",
    "kernels",
    "series",
    "quot",
    "partitions",
    "surfaces",
    "motives",
)

KERNELS = ("addmul_shifted", "inv_trunc", "mul_trunc")
#: Private engine functions behind engine.class_evals and the memo ratio.
ENGINE_PRIVATE = ("_compute_relative_dense", "_relative_dense")
#: Series functions whose span is split by the arity of the first argument.
SERIES_SPLIT = ("ps_add", "ps_mul", "ps_inv", "ps_pow")

_MARK = "_perfbench_original"


def kernel_terms(name, args):
    """Coefficient multiply-adds a kernel call may do, computed from the
    argument lengths (zero coefficients the kernel skips are included)."""
    if name == "addmul_shifted":
        _, src, shift, coef, n = args[:5]
        return min(len(src), n + 1 - shift) if coef and shift <= n else 0
    if name == "mul_trunc":
        a, b, n = args[:3]
        return sum(min(len(b), n + 1 - i) for i in range(min(len(a), n + 1)))
    a, n = args[:2]
    return sum(min(k, len(a) - 1) for k in range(1, n + 1))


def _public_functions(module):
    """Names of callables defined in ``module`` whose names are public."""
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(inspect.unwrap(value))
        and value.__module__ == module.__name__
    ]


def _targets():
    """(span name, original) for every callable to wrap."""
    out = []
    for short in MODULES:
        module = importlib.import_module(f"flagseries.{short}")
        names = KERNELS if short == "kernels" else _public_functions(module)
        if short == "engine":
            names = list(names) + list(ENGINE_PRIVATE)
        out.extend((f"{short}.{name}", getattr(module, name)) for name in names)
    return out


def _loaded_flagseries_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "flagseries" or name.startswith("flagseries."))
    ]


class Tracer:
    """Wraps the package's layer boundaries and accumulates span totals."""

    def __init__(self):
        #: span name -> [calls, self seconds, total seconds]
        self.stats = {}
        self.kernel_terms = 0
        self.root_s = 0.0
        self._stack = []
        self._patches = []  # (owner, attribute, original), in patch order

    # -- recording ------------------------------------------------------

    def _close(self, key, start):
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed - child
        rec[2] += elapsed
        if self._stack:
            self._stack[-1] += elapsed

    def _wrap(self, key, fn):
        stack = self._stack
        close = self._close
        clock = time.perf_counter
        module, _, name = key.partition(".")

        if module == "kernels":
            def wrapper(*args, **kwargs):
                self.kernel_terms += kernel_terms(name, args)
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(key, start)
        elif key in {f"series.{n}" for n in SERIES_SPLIT}:
            multi = key + ".multivar"

            def wrapper(*args, **kwargs):
                span = multi if len(args[0].variables) > 1 else key
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(span, start)
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(key, start)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` as one request; its duration is a root span."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.root_s += time.perf_counter() - start

    # -- patching -------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for key, fn in _targets():
            wrappers[id(fn)] = (fn, self._wrap(key, fn))
        for module in _loaded_flagseries_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        weight = importlib.import_module("flagseries.engine").PlacementWeight
        self._patches.append((weight, "__init__", weight.__init__))
        weight.__init__ = self._wrap("engine.PlacementWeight", weight.__init__)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def summary(self):
        return {
            "stats": {k: list(v) for k, v in sorted(self.stats.items())},
            "kernel_terms": self.kernel_terms,
            "root_s": self.root_s,
        }


def patched_bindings():
    """(module, attribute) pairs in loaded ``flagseries`` modules that still
    hold a tracing wrapper; empty once a tracer is uninstalled."""
    found = [
        (module.__name__, attr)
        for module in _loaded_flagseries_modules()
        for attr, value in vars(module).items()
        if hasattr(value, _MARK)
    ]
    engine = sys.modules.get("flagseries.engine")
    if engine is not None and hasattr(engine.PlacementWeight.__init__, _MARK):
        found.append(("flagseries.engine", "PlacementWeight.__init__"))
    return found


def merge(summaries):
    """Sum tracer summaries of several requests."""
    stats = {}
    terms = 0
    root = 0.0
    for s in summaries:
        for key, (calls, self_s, total_s) in s["stats"].items():
            rec = stats.setdefault(key, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += self_s
            rec[2] += total_s
        terms += s["kernel_terms"]
        root += s["root_s"]
    return {"stats": stats, "kernel_terms": terms, "root_s": root}


def layer_metrics(summary):
    """Per-layer metric values (name -> number) from a merged summary."""
    stats = summary["stats"]

    def total(pred, field):
        return sum(rec[field] for key, rec in stats.items() if pred(key))

    def one(key, field):
        rec = stats.get(key)
        return rec[field] if rec else 0

    out = {}
    for m in MODULES:
        out[f"{m}.calls"] = total(lambda k, m=m: k.split(".")[0] == m, 0)
        out[f"{m}.self_s"] = total(lambda k, m=m: k.split(".")[0] == m, 1)
    evals = one("engine._compute_relative_dense", 0)
    lookups = one("engine._relative_dense", 0)
    out["engine.weights_s"] = one("engine.PlacementWeight", 2)
    out["engine.class_evals"] = evals
    out["engine.relative_dense_calls"] = lookups
    out["engine.memo_hit_ratio"] = 1 - evals / lookups if lookups else 0.0
    for name in KERNELS:
        out[f"kernels.{name}.calls"] = one(f"kernels.{name}", 0)
    out["kernels.terms"] = summary["kernel_terms"]
    out["shapes.rp_count.self_s"] = one("shapes.rp_count", 1)
    out["shapes.rp_count.calls"] = one("shapes.rp_count", 0)
    out["shapes.enum.self_s"] = total(lambda k: k.startswith("shapes.enum_"), 1)
    out["series.clear_denominator.self_s"] = one("series.clear_denominator", 1)
    out["series.multivar.self_s"] = total(lambda k: k.endswith(".multivar"), 1)
    out["partitions.count_coloured_flags.calls"] = one(
        "partitions.count_coloured_flags", 0
    )
    covered = sum(rec[1] for rec in stats.values())
    out["trace.coverage"] = covered / summary["root_s"] if summary["root_s"] else 0.0
    return out
