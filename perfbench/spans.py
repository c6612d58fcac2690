"""Spans around tbstat's layer calls, recorded from outside the package.

``instrument`` replaces, for the duration of a ``with`` block, the public
names that ``tbstat.cli`` and ``tbstat.analysis`` look up when a scenario
runs.  Each replacement calls the original.  With a ``Tracer`` it records
one span per call, named after the module that defines the function; with
none it only keeps the last return value of the functions whose results
the correctness gate reads.  Spans stay in memory.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# Public name -> span name.
LAYERS = {
    "build_state_space": "statespace.build_state_space",
    "build_rate_matrix": "markov.build_rate_matrix",
    "build_replenishment_matrix": "markov.build_replenishment_matrix",
    "build_partitioned_generator": "markov.build_partitioned_generator",
    "expm_action": "markov.expm_action",
    "integrate_expm_action": "markov.integrate_expm_action",
    "solve_stationary": "analysis.solve_stationary",
    "time_average_distribution": "analysis.time_average_distribution",
    "occupancy_table": "analysis.occupancy_table",
    "class_metrics": "analysis.class_metrics",
    "simulate": "des.simulate",
    "batch_confidence": "des.batch_confidence",
}
ROOT = "cli.run_scenario"
NAMESPACES = ("tbstat.cli", "tbstat.analysis")
CAPTURED = ("solve_stationary", "simulate")


def _attrs(name: str, out) -> dict:
    """Counts read off a layer's return value."""
    if name == "statespace.build_state_space":
        return {"states": out.n_states}
    if name == "markov.build_rate_matrix":
        return {"rate_nnz": out.nnz}
    if name == "analysis.solve_stationary":
        return {"iterations": out.iterations, "residual": out.residual}
    if name == "des.simulate":
        return {"events": out.events}
    return {}


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs: dict = {}


class Tracer:
    """Spans of one call tree, in start order; a span's parent is an index."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        span.attrs = _attrs(name, out)
        return out

    def totals(self) -> tuple[dict, dict]:
        """Per span name: calls, inclusive and self seconds; merged counts.

        Self time is a span's duration minus the durations of its children.
        """
        dur = [s.end - s.start for s in self.spans]
        child = [0.0] * len(self.spans)
        for span, d in zip(self.spans, dur):
            if span.parent is not None:
                child[span.parent] += d
        by_name: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        attrs: dict = {}
        for span, d, c in zip(self.spans, dur, child):
            entry = by_name[span.name]
            entry["calls"] += 1
            entry["total"] += d
            entry["self"] += d - c
            attrs.update(span.attrs)
        return by_name, attrs


def _wrap(fn, attr: str, captured: dict, tracer: Tracer | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer is None:
            out = fn(*args, **kwargs)
        else:
            out = tracer.call(LAYERS[attr], fn, *args, **kwargs)
        if attr in CAPTURED:
            captured[attr] = out
        return out

    return wrapper


@contextmanager
def instrument(captured: dict, tracer: Tracer | None = None):
    """Wrap the layer names in tbstat's namespaces until the block exits.

    Names a namespace does not have are skipped, so a layer that a later
    version no longer calls reads as zero calls.
    """
    saved = []
    try:
        for modname in NAMESPACES:
            module = importlib.import_module(modname)
            for attr in LAYERS:
                if tracer is None and attr not in CAPTURED:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, _wrap(fn, attr, captured, tracer))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
