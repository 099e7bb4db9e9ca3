"""Span tracing of the package's layers, installed from outside ``src/``.

``Tracer.install`` replaces each wrapped public function in every
``twohop_aloha`` module namespace that holds it, so calls made through a
name imported with ``from .core import poisson_tail_cutoff`` are traced as
well as calls made through the defining module.  Spans stay in memory;
``function_stats``, ``layer_self_s`` and ``unaccounted_s`` turn one command
batch's spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass

PACKAGE = "twohop_aloha"


def _erasure_count(bound, result):
    """Frames asked for and PSR trials returned (multi-K runs share them)."""
    first = next(iter(result.values())) if isinstance(result, dict) else result
    return {
        "frames": bound["n_frames"],
        "trials": first.Gamma_c.n_samples + first.Gamma_cbar.n_samples,
    }


def _fading_count(bound, result):
    return {
        "slots": bound["n_slots"],
        "trials": result.Gamma_c.n_samples + result.Gamma_cbar.n_samples,
    }


#: module -> {public function: counter(bound arguments, result) or None}
WRAPPED = {
    "cli": {
        "main": None,
        "pareto_filter": lambda b, r: {"points_in": len(b["points"])},
        "write_csv": lambda b, r: {"bytes": os.path.getsize(b["path"])},
    },
    "analytic_erasure": {"evaluate_erasure": None},
    "superposition": {"evaluate_superposition": None},
    "sim_erasure": {
        "simulate": _erasure_count,
        "simulate_multi_k": _erasure_count,
    },
    "sim_fading": {"estimate_fading_metrics": _fading_count},
    "core": {
        "poisson_tail_cutoff": None,
        "poisson_weights": None,
        "aux_h": None,
        "gamma_k_tolerance_array": None,
    },
}


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float
    counts: dict | None = None


class Tracer:
    """Records one span per wrapped call; a root span opens a new trace id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._trace = 0

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._trace += 1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            counts = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments, result)
            self.spans.append(Span(span_id, parent, self._trace, name, start, end, counts))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED wherever the package refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, functions in WRAPPED.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for fn_name, counter in functions.items():
                original = getattr(home, fn_name)
                traced = self.wrap(f"{module_name}.{fn_name}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)

    def take(self) -> list[Span]:
        """Spans recorded since the last call (one command batch)."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(spans: list[Span], path: str) -> None:
    """Gzipped JSON lines: [id, parent, trace, name, start, end, counts]."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for span in spans:
            row = (span.id, span.parent, span.trace, span.name, span.start, span.end, span.counts)
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")


# ============================================================================
#  Self time and per-layer aggregation
# ============================================================================


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def function_stats(spans: list[Span]) -> dict[str, dict]:
    """Per wrapped function: calls, busy_s, self_s and summed counts.

    ``busy_s`` counts a span only when no ancestor has the same name, so a
    function that re-enters itself is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    stats: dict[str, dict] = {}
    for s in spans:
        st = stats.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += own[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            st["busy_s"] += s.end - s.start
        for key, value in (s.counts or {}).items():
            st[key] = st.get(key, 0) + value
    return stats


def layer_self_s(spans: list[Span], layer: str) -> float:
    own = self_times(spans)
    return sum(own[s.id] for s in spans if s.name.startswith(layer + "."))


def unaccounted_s(spans: list[Span], wall_s: float) -> float:
    """Command wall time not covered by ``cli`` self time or the layers it calls.

    The busy time of the layers that ``cli`` calls directly plus
    ``cli.self_s`` should add up to the wall time measured around the
    commands; what is left is time outside ``cli.main``.
    """
    by_id = {s.id: s for s in spans}
    child_layers = sum(
        s.end - s.start
        for s in spans
        if s.parent is not None
        and not s.name.startswith("cli.")
        and by_id[s.parent].name.startswith("cli.")
    )
    return wall_s - layer_self_s(spans, "cli") - child_layers
