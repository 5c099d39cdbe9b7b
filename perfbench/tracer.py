"""Spans and counters recorded from outside the coulscat package.

`Tracer.install` replaces public (and a few private) functions of the
`cli`, `observables`, `scan`, `partialwave` and `specfun` modules with
wrappers that record one span per call: the layer, start, end, and the
layer of the span that caused it.  Calls inside the package look these
functions up as module attributes (`specfun.legendre_rows(...)`), so they
reach the wrappers.  The names `coulscat/__init__.py` re-exports are bound
to the original functions and are left alone; the benchmark calls through
the modules.  A target the package no longer has is skipped and listed in
`Tracer.absent`; the run decides (REQUIRED_CALLS in run.py) whether a
layer left without calls fails it.

A layer's self time is the length of the union of its spans minus the part
of that union covered by its child spans.  Unions, not sums, because the
sweep's pool threads run spans of one layer at the same time.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

import numpy as np

# layer name -> (module, attribute) pairs wrapped for that layer
LAYERS = {
    "cli": [("cli", "main")],
    "observables.delta_profile": [("observables", "delta_profile")],
    "observables.point": [("observables", name) for name in (
        "dcs", "delta_max_at", "scattering_amplitude_f", "energy_ratio_rho")],
    "scan.sweep": [("scan", "sweep")],
    "scan.export": [("scan", "field_to_csv"), ("scan", "field_to_json")],
    "partialwave.build_table": [("partialwave", "build_table")],
    # the grid, pair and single-point evaluators and the row reduction
    "partialwave.series": [("partialwave", name) for name in (
        "probability", "amplitude", "amplitude_forward", "amplitude_scatter",
        "probability_grid", "amplitude_grid", "forward_grid", "scatter_grid",
        "probability_pairs", "_eval_grid", "_series_row")],
    "partialwave.delta_factors": [("partialwave", "_delta_factors")],
    "specfun.legendre_rows": [("specfun", "legendre_rows")],
    # sigma, asymptotic-sigma and digamma tables
    "specfun.phase_tables": [("specfun", name) for name in (
        "coulomb_sigma_table", "coulomb_sigma_asymptotic_table",
        "dsigma_deta_table")],
}


def union_length(intervals) -> float:
    return sum(b - a for a, b in _merge(intervals))


def _merge(intervals):
    merged = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1][1] = b
        else:
            merged.append([a, b])
    return merged


def _intersection_length(xs, ys) -> float:
    xs, ys = _merge(xs), _merge(ys)
    i = j = 0
    total = 0.0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if hi > lo:
            total += hi - lo
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_time(spans, layer: str) -> float:
    """Union of `layer`'s spans minus the part covered by their children."""
    own = [(a, b) for name, a, b, _parent in spans if name == layer]
    children = [(a, b) for name, a, b, parent in spans
                if parent == layer and name != layer]
    return union_length(own) - _intersection_length(own, children)


class Tracer:
    """Records spans and counters at the layer boundaries of one process."""

    def __init__(self):
        self.spans = []  # (layer, start, end, parent layer)
        self.counts = defaultdict(float)
        self.angles = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._main_thread = threading.get_ident()
        self._patched = []
        self.absent = []  # "module.attr" targets the package does not have
        self.hook_errors = set()  # functions whose counter hook raised

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool thread works for whatever the submitting thread is inside
        if threading.get_ident() != self._main_thread and self._main_stack:
            return self._main_stack[-1]
        return None

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def _wrap(self, layer: str, fn, hook):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            stack.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((layer, start, end, parent))
            self.count(layer + ".calls", 1)
            if hook is not None:
                try:
                    hook(self, args, kwargs, end - start)
                except (TypeError, IndexError, KeyError, AttributeError, ValueError):
                    # the function's signature changed; its counter stays
                    # incomplete, the call itself is unaffected
                    self.hook_errors.add(f"{fn.__module__}.{fn.__qualname__}")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> "Tracer":
        """Wrap every function in LAYERS; `modules` maps short names to modules."""
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                module = modules[mod_name]
                original = getattr(module, attr, None)
                if original is None:
                    self.absent.append(f"{mod_name}.{attr}")
                    continue
                hook = _HOOKS.get((mod_name, attr))
                setattr(module, attr, self._wrap(layer, original, hook))
                self._patched.append((module, attr, original))
        cache_cls = getattr(modules["scan"], "TableCache", None)
        original = getattr(cache_cls, "get_or_build", None)
        if original is None:
            self.absent.append("scan.TableCache.get_or_build")
            return self

        def get_or_build(cache, *args, **kwargs):
            hits = getattr(cache, "hits", 0)
            table = original(cache, *args, **kwargs)
            self.count("scan.TableCache.lookups", 1)
            self.count("scan.TableCache.hits", getattr(cache, "hits", 0) - hits)
            return table

        cache_cls.get_or_build = get_or_build
        self._patched.append((cache_cls, "get_or_build", original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer self times and counters of everything recorded so far."""
        spans = list(self.spans)
        out = {f"{layer}.self_s": self_time(spans, layer) for layer in LAYERS}
        out.update(self.counts)
        out["specfun.legendre_rows.distinct_angles"] = len(self.angles)
        return out


def _legendre_hook(tracer, args, kwargs, _dt):
    thetas = np.atleast_1d(np.asarray(args[0] if args else kwargs["thetas"], dtype=float))
    tracer.count("specfun.legendre_rows.rows", thetas.size)
    with tracer._lock:
        tracer.angles.update(thetas.tolist())


def _series_row_hook(tracer, args, kwargs, _dt):
    # terms reduced: n_delta rows of L+1 products each
    p_row, g = args[1], args[2]
    tracer.count("partialwave.terms", g.shape[0] * p_row.size)


def _factors_hook(tracer, args, kwargs, _dt):
    table, deltas = args[0], np.asarray(args[1])
    tracer.count("partialwave.factor_bytes", deltas.size * table.xi.size * 8)


def _profile_hook(tracer, args, kwargs, _dt):
    thetas = args[1] if len(args) > 1 else kwargs["thetas"]
    tracer.count("observables.delta_profile.angles", np.size(thetas))


def _sweep_hook(tracer, args, kwargs, dt):
    workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
    tracer.count("scan.sweep.w1_s" if workers <= 1 else "scan.sweep.wN_s", dt)


def _export_hook(tracer, args, kwargs, _dt):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("scan.export.bytes", os.path.getsize(path))


_HOOKS = {
    ("specfun", "legendre_rows"): _legendre_hook,
    ("partialwave", "_series_row"): _series_row_hook,
    ("partialwave", "_delta_factors"): _factors_hook,
    ("observables", "delta_profile"): _profile_hook,
    ("scan", "sweep"): _sweep_hook,
    ("scan", "field_to_csv"): _export_hook,
    ("scan", "field_to_json"): _export_hook,
}
