"""Span tracing of infoeff's layers from outside the package.

`Tracer.install` wraps every public function of each layer module, plus the
validating constructors of the probability types and `SampleSet.counts`, at
every `infoeff` namespace that holds a reference to it, including the
module-level dispatch tables (`cli.COMMANDS`, `coin.CURVES`) that hold one
as a value or inside a tuple value. Each call records a
span (name, start, end, parent) in memory. Nothing is installed unless a
Tracer is created, so untraced runs execute the package untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

LAYERS = ("probability", "measures", "efficiency", "coin", "kelly", "estimation", "cli", "svg")
METHODS = {
    "probability": ("Distribution.__post_init__", "Channel.__post_init__", "JointSystem.__post_init__"),
    "estimation": ("SampleSet.counts",),
}
VALIDATORS = {f"probability.{m}" for m in METHODS["probability"]}

# span name -> (counter, its value taken from the call's result). A pass sums
# a counter over its spans, except the table size, which repeats per call.
COUNTERS = {
    "estimation.read_samples": ("estimation.records", len),
    "estimation.SampleSet.counts": ("estimation.cells", lambda table: table.size),
    "estimation.estimate_efficiency": ("estimation.resamples", lambda rep: rep.resamples),
    "kelly.simulate": ("kelly.rounds", lambda res: res.rounds),
    "svg.line_chart": ("svg.bytes", lambda text: len(text.encode("utf-8"))),
}
# Functions whose tracemalloc peak (MB) is recorded, as a counter, in the
# allocation pass.
ALLOCATING = {
    "estimation.read_samples": "estimation.read_samples_alloc_peak_mb",
    "kelly.simulate": "kelly.simulate_alloc_peak_mb",
}
MAX_COUNTERS = {"estimation.cells", *ALLOCATING.values()}

# Per-layer metric -> (aggregate over a pass's spans, key). The key is a span
# name, a set of them, or a whole layer. "total" is inclusive time, "self" is
# time minus child spans, "calls" counts spans, "count" is a counter above.
LAYER_METRICS = {
    "estimation.read_samples_s": ("total", "estimation.read_samples"),
    "estimation.read_samples_alloc_peak_mb": ("count", "estimation.read_samples_alloc_peak_mb"),
    "estimation.counts_s": ("total", "estimation.SampleSet.counts"),
    "estimation.counts_calls": ("calls", "estimation.SampleSet.counts"),
    "estimation.estimate_joint_s": ("total", "estimation.estimate_joint"),
    "estimation.estimate_efficiency_s": ("total", "estimation.estimate_efficiency"),
    "estimation.bootstrap_s": ("self", "estimation.estimate_efficiency"),
    "estimation.self_s": ("self", "estimation"),
    "estimation.calls": ("calls", "estimation"),
    "estimation.records": ("count", "estimation.records"),
    "estimation.cells": ("count", "estimation.cells"),
    "estimation.resamples": ("count", "estimation.resamples"),
    "kelly.simulate_s": ("total", "kelly.simulate"),
    "kelly.simulate_alloc_peak_mb": ("count", "kelly.simulate_alloc_peak_mb"),
    "kelly.rounds": ("count", "kelly.rounds"),
    "kelly.strategy_s": ("total", "kelly.kelly_strategy"),
    "kelly.expected_growth_s": ("total", "kelly.expected_log2_growth"),
    "kelly.grid_search_s": ("total", "kelly.grid_search_optimal"),
    "kelly.target_s": ("total", "kelly.kelly_growth_target"),
    "kelly.self_s": ("self", "kelly"),
    "kelly.calls": ("calls", "kelly"),
    "cli.self_s": ("self", "cli"),
    "cli.calls": ("calls", "cli"),
    "probability.validate_s": ("total", VALIDATORS),
    "probability.validations": ("calls", VALIDATORS),
    "probability.s": ("self", "probability"),
    "probability.calls": ("calls", "probability"),
    "measures.s": ("self", "measures"),
    "measures.calls": ("calls", "measures"),
    "efficiency.self_s": ("self", "efficiency"),
    "efficiency.calls": ("calls", "efficiency"),
    "coin.s": ("self", "coin"),
    "coin.calls": ("calls", "coin"),
    "coin.sweep_s": ("total", "coin.sweep"),
    "svg.line_chart_s": ("total", "svg.line_chart"),
    "svg.self_s": ("self", "svg"),
    "svg.bytes": ("count", "svg.bytes"),
}


def _swap(value, fn, wrapper):
    """`value` with `fn` replaced by `wrapper`, where it is `fn` or a tuple holding it."""
    if value is fn:
        return wrapper
    if type(value) is tuple and any(v is fn for v in value):
        return tuple(wrapper if v is fn else v for v in value)
    return value


class Tracer:
    """Records spans of wrapped infoeff calls; `spans[i]` is
    [name, start, end, parent index or -1, counter values or None]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.track_alloc = False

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items()) if n == "infoeff" or n.startswith("infoeff.")]
        for layer in LAYERS:
            # import_module, not `import infoeff.efficiency`: the package
            # re-exports the function `efficiency` under the module's name.
            module = importlib.import_module(f"infoeff.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for namespace in namespaces:
                    names = vars(namespace)
                    tables = [names, *(v for k, v in names.items()
                                       if isinstance(v, dict) and not k.startswith("__"))]
                    for table in tables:
                        for key, value in list(table.items()):
                            if (new := _swap(value, fn, wrapper)) is not value:
                                table[key] = new
            for path in METHODS.get(layer, ()):
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self._wrap(f"{layer}.{path}", cls.__dict__[method]))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        alloc_metric = ALLOCATING.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            alloc = alloc_metric is not None and self.track_alloc
            if alloc:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
                if alloc:
                    span[4] = {alloc_metric: tracemalloc.get_traced_memory()[1] / 2**20}
                    tracemalloc.stop()
            if counter is not None:
                span[4] = {**(span[4] or {}), counter[0]: counter[1](result)}
            return result

        return wrapper

    def pass_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics over spans[first:last] (one pass)."""
        child_time: dict[int, float] = defaultdict(float)
        for i in range(first, last):
            name, start, end, parent, _ = self.spans[i]
            if parent >= first:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        values: dict[str, list] = defaultdict(list)
        for i in range(first, last):
            name, start, end, _, counts = self.spans[i]
            own = end - start - child_time[i]
            layer = name.split(".", 1)[0]
            total[name] += end - start
            self_time[name] += own
            calls[name] += 1
            self_time[layer] += own
            calls[layer] += 1
            for key, value in (counts or {}).items():
                values[key].append(value)

        def over(keys, table):
            keys = {keys} if isinstance(keys, str) else keys
            return sum(table[k] for k in keys)

        out = {}
        for metric, (kind, key) in LAYER_METRICS.items():
            if kind == "total":
                out[metric] = over(key, total)
            elif kind == "self":
                out[metric] = over(key, self_time)
            elif kind == "calls":
                out[metric] = over(key, calls)
            else:
                out[metric] = max(values[key], default=0) if key in MAX_COUNTERS else sum(values[key])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": [s[:4] for s in self.spans]}, fh, separators=(",", ":"))
