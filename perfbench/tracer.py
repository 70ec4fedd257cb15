"""Spans and counters around calls into mfinv's layers, from outside mfinv.

`Tracer.install` replaces the public functions of every mfinv module (and
the public methods of the classes they define) by timing wrappers.  It
also rebinds the names that other mfinv modules imported with
``from ... import``, so a call from `homology` into `groebner` is seen
the same as a call from the benchmark.  Nothing inside ``src/mfinv`` is
edited.

The layers are the modules.  `scalar` and `poly` arithmetic runs millions
of times per pass, so those calls are counted and timed in aggregate;
every other call becomes a span (id, parent, name, start, end) kept in
memory.  Self time is a call's duration minus the time of the traced calls
made inside it, aggregate ones included.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "scalar",
    "poly",
    "groebner",
    "milnor",
    "mfcore",
    "homology",
    "invariants",
    "equivariant",
    "oracle",
    "cli",
)
AGGREGATE = {"scalar", "poly"}

_ARITHMETIC = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
}
# In the aggregate layers only the element arithmetic and a few heavy
# methods are wrapped: predicates such as `is_zero` and the exponent-tuple
# helpers (`monomial_mul`, `grevlex_key`) run inside every product, and
# wrapping them would multiply the tracing overhead without naming work.
_AGGREGATE_METHODS = {
    "Scalar": _ARITHMETIC | {"inverse"},
    "Polynomial": _ARITHMETIC | {"partial_derivative", "substitute", "map_ring"},
    "PolyRing": {"parse"},
}
_AGGREGATE_SKIP = {"grevlex_key", "monomial_mul", "monomial_divides",
                   "monomial_div", "monomial_lcm"}

# Per-layer metrics the README ties to end-to-end metrics, besides
# `<layer>.calls` and `<layer>.self_s`: (metric, unit), derived in
# `layer_metrics`.
SPECIFIC = (
    ("cli.startup_s", "s"),
    ("cli.load_session_s", "s"),
    ("scalar.mul_calls", "count"),
    ("scalar.inverse_calls", "count"),
    ("poly.mul_calls", "count"),
    ("groebner.buchberger_s", "s"),
    ("groebner.module_buchberger_calls", "count"),
    ("groebner.module_buchberger_s", "s"),
    ("groebner.module_gb_size", "count"),
    ("milnor.build_calls", "count"),
    ("milnor.gram_s", "s"),
    ("milnor.trace_calls", "count"),
    ("mfcore.mat_mul_calls", "count"),
    ("homology.hom_calls", "count"),
    ("homology.hom_reuse_ratio", "ratio"),
    ("homology.hom_s", "s"),
    ("equivariant.sector_calls", "count"),
    ("oracle.solve_D_s", "s"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[layer + ".calls"] = "count"
        units[layer + ".self_s"] = "s"
    units.update(SPECIFIC)
    return units


def _matrix_key(M) -> tuple:
    # built from exponent and Fraction tuples only, so that forming the key
    # makes no traced scalar or polynomial call
    return tuple(
        tuple(tuple(sorted((m, c.coeffs) for m, c in p.terms.items())) for p in row)
        for row in M
    )


class Tracer:
    """Wrappers, counters and spans for one process."""

    def __init__(self):
        # each frame: [child time, span id or None]
        self._stack = [[0.0, None]]
        self.spans: list = []  # (id, parent, name, start, end)
        self.calls: Counter = Counter()
        self.total = defaultdict(float)  # inclusive time per qualified name
        self.self_time = defaultdict(float)  # per layer
        self.sizes: Counter = Counter()
        self.hom_pairs: set = set()
        self.startup_s = 0.0

    # --- bookkeeping between passes --------------------------------------

    def reset(self) -> None:
        """Start a new pass; the wrappers keep references, so clear in place."""
        self.spans.clear()
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.sizes.clear()
        self.hom_pairs.clear()
        self.startup_s = 0.0

    @contextmanager
    def root_span(self, name: str):
        """A span with no parent around one benchmark operation."""
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, span_id])
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (span_id, None, name, start, end)

    # --- wrapping ----------------------------------------------------------

    def _aggregate(self, layer: str, qual: str, fn):
        stack = self._stack
        calls = self.calls
        total = self.total
        self_time = self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                calls[qual] += 1
                total[qual] += dt
                self_time[layer] += dt - frame[0]

        return wrapper

    def _spanning(self, layer: str, qual: str, fn):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                tracer.calls[qual] += 1
                tracer.total[qual] += dt
                tracer.self_time[layer] += dt - frame[0]
                tracer.spans[span_id] = (span_id, parent, qual, t0, t1)
                tracer._observe(qual, args, result)

        return wrapper

    def _observe(self, qual: str, args, result) -> None:
        if qual == "groebner.module_buchberger" and result is not None:
            self.sizes["module_gb"] += len(result)
        elif qual == "homology.hom_cohomology" and len(args) >= 2:
            E, F = args[0], args[1]
            self.hom_pairs.add(
                (_matrix_key(E.d0), _matrix_key(E.d1),
                 _matrix_key(F.d0), _matrix_key(F.d1))
            )

    def install(self) -> None:
        """Wrap every loaded mfinv module; call once per process."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name.startswith("mfinv.") and mod is not None
        }
        replaced = {}
        for layer in LAYERS:
            mod = modules.get("mfinv." + layer)
            if mod is None:
                continue
            make = self._aggregate if layer in AGGREGATE else self._spanning
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or (
                    callable(obj) and hasattr(obj, "cache_info")
                ):
                    if layer in AGGREGATE and name in _AGGREGATE_SKIP:
                        continue
                    wrapped = make(layer, "%s.%s" % (layer, name), obj)
                    replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, make)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_class(self, layer: str, cls, make) -> None:
        allowed = _AGGREGATE_METHODS.get(cls.__name__) if layer in AGGREGATE else None
        if layer in AGGREGATE and allowed is None:
            return
        for name, raw in list(vars(cls).items()):
            if allowed is not None:
                if name not in allowed:
                    continue
            elif name.startswith("_") and name not in _ARITHMETIC:
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(make(layer, qual, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, name, classmethod(make(layer, qual, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, make(layer, qual, raw))

    # --- metrics -----------------------------------------------------------

    def counts(self) -> dict:
        """Raw per-pass numbers, summable across processes."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "module_gb": self.sizes["module_gb"],
            "hom_pairs": len(self.hom_pairs),
            "startup_s": self.startup_s,
        }


def merge_counts(parts: list) -> dict:
    """Sum the raw numbers of several processes (or none)."""
    out = {"calls": Counter(), "total": defaultdict(float), "self": defaultdict(float),
           "module_gb": 0, "hom_pairs": 0, "startup_s": 0.0}
    for part in parts:
        out["calls"].update(part["calls"])
        for k, v in part["total"].items():
            out["total"][k] += v
        for k, v in part["self"].items():
            out["self"][k] += v
        out["module_gb"] += part["module_gb"]
        out["hom_pairs"] += part["hom_pairs"]
        out["startup_s"] += part["startup_s"]
    return out


def layer_metrics(raw: dict) -> dict:
    """Per-layer metric values from merged raw numbers."""
    calls, total = raw["calls"], raw["total"]
    values = {}
    for layer in LAYERS:
        prefix = layer + "."
        values[layer + ".calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
        values[layer + ".self_s"] = raw["self"].get(layer, 0.0)
    hom_calls = calls.get("homology.hom_cohomology", 0)
    values.update({
        "cli.startup_s": raw["startup_s"],
        "cli.load_session_s": total.get("cli.load_session", 0.0),
        "scalar.mul_calls": calls.get("scalar.Scalar.__mul__", 0)
        + calls.get("scalar.Scalar.__rmul__", 0),
        "scalar.inverse_calls": calls.get("scalar.Scalar.inverse", 0),
        "poly.mul_calls": calls.get("poly.Polynomial.__mul__", 0)
        + calls.get("poly.Polynomial.__rmul__", 0),
        "groebner.buchberger_s": total.get("groebner.buchberger", 0.0),
        "groebner.module_buchberger_calls": calls.get("groebner.module_buchberger", 0),
        "groebner.module_buchberger_s": total.get("groebner.module_buchberger", 0.0),
        "groebner.module_gb_size": raw["module_gb"],
        "milnor.build_calls": calls.get("milnor.build_milnor", 0),
        "milnor.gram_s": total.get("milnor.gram_matrix", 0.0),
        "milnor.trace_calls": calls.get("milnor.residue_trace", 0)
        + calls.get("milnor.canonical_pairing", 0),
        "mfcore.mat_mul_calls": calls.get("mfcore.mat_mul", 0),
        "homology.hom_calls": hom_calls,
        # distinct (E, F) pairs per process over hom_cohomology calls; a
        # pass without Hom calls repeats no Hom work and reads 1
        "homology.hom_reuse_ratio": raw["hom_pairs"] / hom_calls if hom_calls else 1.0,
        "homology.hom_s": total.get("homology.hom_cohomology", 0.0),
        "equivariant.sector_calls": calls.get("equivariant.sector", 0),
        "oracle.solve_D_s": total.get("oracle.solve_D", 0.0),
    })
    return values
