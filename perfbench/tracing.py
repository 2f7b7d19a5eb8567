"""Spans and counters around etacover's public functions, and the
per-layer metrics computed from them.

``Tracer.install`` wraps the functions below without editing ``src/``.
Each wrapper replaces every module-level binding of the original inside
the ``etacover`` package, so calls through ``from .x import f`` names are
seen too.  A span records name, start, end, parent span and operation
id, and stays in memory until ``dump``.  Calls too hot to time
(``is_member``, ``random_member``) are only counted.  Work the tracer
does for its own counters (the pair statistics of ``QSeries.__mul__``)
is taken off the span clock, so it does not show up as self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from bisect import bisect_left
from collections import defaultdict
from math import ceil

# (module, function) pairs; the span is named "<module>.<function>" after
# the last part of the module name, which is also the span's layer
TIMED = [
    ("etacover.cli", "main"),
    ("etacover.certify", "certify"),
    ("etacover.certify", "verify_shifting"),
    ("etacover.certify", "verify_transforms"),
    ("etacover.certify", "verify_invariance"),
    ("etacover.certify", "verify_quotient"),
    ("etacover.certify", "cusp_orders"),
    ("etacover.certify", "verify_z_relation"),
    ("etacover.certify", "report_to_json"),
    ("etacover.certify", "report_to_dict"),
    ("etacover.subgroups", "cusp_set"),
    ("etacover.subgroups", "cusps_equivalent"),
    ("etacover.subgroups", "cusp_width"),
    ("etacover.subgroups", "quotient_structure"),
    ("etacover.eta", "generalized_eta"),
    ("etacover.eta", "expand_product"),
    ("etacover.eta", "eta_quotient_series"),
    ("etacover.eta", "classical_eta"),
    ("etacover.numeric", "check_E_transform"),
    ("etacover.numeric", "check_F_transform"),
    ("etacover.numeric", "check_G_transform"),
    ("etacover.numeric", "eval_product"),
]

# span name -> QSeries method
TIMED_METHODS = {
    "qseries.mul": "__mul__",
    "qseries.pow": "__pow__",
    "qseries.inverse": "inverse",
    "qseries.agrees_with": "agrees_with",
}

COUNTED = [("etacover.subgroups", "is_member"), ("etacover.subgroups", "random_member")]

LAYERS = ("cli", "certify", "subgroups", "numeric", "eta", "qseries")

# certify.<check>.s is the inclusive time of the function running the check
CHECKS = {
    "shifting": "certify.verify_shifting",
    "transformation-law": "certify.verify_transforms",
    "invariance": "certify.verify_invariance",
    "quotient-structure": "certify.verify_quotient",
    "cusp-orders": "certify.cusp_orders",
    "z-relation": "certify.verify_z_relation",
}


def _name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _observe_hit(counts, args, result) -> None:
    if result:
        counts["subgroups.cusps_equivalent.hits"] += 1


def _observe_pairs(counts, args, result) -> None:
    """Pairs of terms __mul__ visits, and those below the product's truncation."""
    a, b = args
    limit = ceil(result.trunc * result.denom)  # kept iff n1 + n2 < limit
    xs = [n * (result.denom // a.denom) for n in a.coeffs]
    ys = [n * (result.denom // b.denom) for n in b.coeffs]
    if len(xs) > len(ys):
        xs, ys = ys, xs
    ys.sort()
    counts["qseries.mul.pairs"] += len(xs) * len(ys)
    counts["qseries.mul.pairs_kept"] += sum(bisect_left(ys, limit - x) for x in xs)


OBSERVERS = {
    "subgroups.cusps_equivalent": _observe_hit,
    "qseries.mul": _observe_pairs,
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.counts: dict = defaultdict(int)
        self.op_id = -1
        self.excluded_ns = 0  # tracer bookkeeping, taken off the span clock
        self._stack: list = []

    def clock(self) -> int:
        return time.perf_counter_ns() - self.excluded_ns

    def _timed(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if observe is not None:
                t0 = time.perf_counter_ns()
                observe(counts, args, result)
                self.excluded_ns += time.perf_counter_ns() - t0
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; raise LookupError if one no longer exists."""
        for targets, wrap in ((TIMED, self._timed), (COUNTED, self._counted)):
            for module, attr in targets:
                original = self._original(module, attr)
                self._rebind(original, wrap(_name(module, attr), original))
        qseries = importlib.import_module("etacover.qseries").QSeries
        for name, method in TIMED_METHODS.items():
            if method not in vars(qseries):
                raise LookupError(f"QSeries.{method} is gone")
            setattr(qseries, method, self._timed(name, vars(qseries)[method]))

    @staticmethod
    def _original(module: str, attr: str):
        try:
            return getattr(importlib.import_module(module), attr)
        except AttributeError:
            raise LookupError(f"{module}.{attr} is gone") from None

    @staticmethod
    def _rebind(original, wrapper) -> None:
        """Replace the original at every name the package looks it up by."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "etacover" or name.startswith("etacover.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
            "counts": dict(self.counts),
            "excluded_s": self.excluded_ns / 1e9,
        }


def aggregate(trace: dict) -> tuple[dict, dict, dict]:
    """Calls, self seconds and inclusive seconds per span name."""
    names, spans = trace["names"], trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_s, incl_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, (n, start, end, _, _) in enumerate(spans):
        name = names[n]
        calls[name] += 1
        self_s[name] += (end - start - child_ns[i]) / 1e9
        incl_s[name] += (end - start) / 1e9
    return calls, self_s, incl_s


def layer_metrics(trace: dict, output_bytes: int, wall_s: float, untraced_wall_s: float,
                  scale: float = 1.0) -> dict:
    """Every per-layer metric of one traced pass, name -> value and unit.

    wall_s is the traced pass's operation time.  Every time is multiplied
    by scale, which brings the traced process to the reference machine
    speed; untraced_wall_s, the same operations with tracing off, is
    already on that scale.  A ratio whose base is 0 reads 0.
    """
    calls, self_s, incl_s = aggregate(trace)
    counts = defaultdict(int, trace["counts"])
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value * scale if unit == "s" else value, "unit": unit}

    def ratio(num, den):
        return num / den if den else 0.0

    for fn in ("cusp_set", "cusps_equivalent", "cusp_width"):
        put(f"subgroups.{fn}.calls", calls[f"subgroups.{fn}"], "count")
        put(f"subgroups.{fn}.self_s", self_s[f"subgroups.{fn}"], "s")
    put("subgroups.cusps_equivalent.hit_ratio",
        ratio(counts["subgroups.cusps_equivalent.hits"], calls["subgroups.cusps_equivalent"]),
        "ratio")
    put("subgroups.is_member.calls", counts["subgroups.is_member"], "count")
    put("subgroups.quotient_structure.self_s", self_s["subgroups.quotient_structure"], "s")
    put("subgroups.random_member.calls", counts["subgroups.random_member"], "count")

    for op in ("mul", "pow", "inverse"):
        put(f"qseries.{op}.calls", calls[f"qseries.{op}"], "count")
        put(f"qseries.{op}.self_s", self_s[f"qseries.{op}"], "s")
    put("qseries.mul.pairs", counts["qseries.mul.pairs"], "count")
    put("qseries.mul.pairs_kept_ratio",
        ratio(counts["qseries.mul.pairs_kept"], counts["qseries.mul.pairs"]), "ratio")
    put("qseries.agrees_with.self_s", self_s["qseries.agrees_with"], "s")

    for fn in ("generalized_eta", "expand_product"):
        put(f"eta.{fn}.calls", calls[f"eta.{fn}"], "count")
        put(f"eta.{fn}.self_s", self_s[f"eta.{fn}"], "s")
    put("eta.eta_quotient_series.self_s", self_s["eta.eta_quotient_series"], "s")
    put("eta.classical_eta.self_s", self_s["eta.classical_eta"], "s")

    checks = [f"numeric.check_{x}_transform" for x in "EFG"]
    put("numeric.check_transform.calls", sum(calls[n] for n in checks), "count")
    put("numeric.check_transform.self_s", sum(self_s[n] for n in checks), "s")
    put("numeric.eval_product.calls", calls["numeric.eval_product"], "count")
    put("numeric.eval_product.self_s", self_s["numeric.eval_product"], "s")

    for check, span in CHECKS.items():
        put(f"certify.{check}.s", incl_s[span], "s")
    put("certify.report.self_s",
        self_s["certify.report_to_json"] + self_s["certify.report_to_dict"], "s")
    put("cli.output_bytes", output_bytes, "bytes")

    for layer in LAYERS:
        put(f"layer.{layer}.self_s",
            sum(v for n, v in self_s.items() if n.split(".")[0] == layer), "s")
    put("trace.wall_s", wall_s, "s")
    put("trace.overhead_s", wall_s - untraced_wall_s / scale, "s")
    put("trace.excluded_s", trace["excluded_s"], "s")
    return metrics
