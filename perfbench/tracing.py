"""Span recording from outside the program.

The traced run never edits the program: it rebinds public functions at
the module attribute the caller looks them up through, records one span
per call, and restores every binding afterwards.  High-frequency calls
(engine queries, dependence builds) are *folded* into their parent span
as ``[seconds, calls]`` totals instead of one span each, which keeps the
trace small and its cost low.

A span's self time is its duration minus its direct children's
durations minus its folded totals; summed over a thread's span tree the
self times telescope to the root's duration, which is what the per
workload tolerance check relies on.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """In-memory spans: (id, name, parent, thread, start, end) records."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.origin = time.perf_counter()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
            "start": time.perf_counter() - self.origin,
            "end": None,
            "attrs": attrs,
            "folded": {},
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def fold(self, name: str, seconds: float, calls: int = 1) -> None:
        """Add one call's time to the current span's folded totals."""
        stack = self._stack()
        if not stack:
            with self.span("bench.unparented"):
                self.fold(name, seconds, calls)
            return
        entry = stack[-1]["folded"].setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += calls

    @contextmanager
    def folding(self, name: str):
        """Time a region as one folded call of ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.fold(name, time.perf_counter() - started)

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable[[Any], Dict[str, Any]]] = None,
             ) -> Callable:
        """``fn`` recording a span per call.

        ``attrs(result)`` may add counters to the span from the result.
        """
        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record["attrs"].update(attrs(result))
                return result
        return call

    def write(self, path) -> None:
        """Write every span as one JSON line, in start order."""
        with open(path, "w") as handle:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


@contextmanager
def patched(bindings: List[Tuple[str, str, Callable]]):
    """Rebind ``module.attr`` (``attr`` may be ``Class.method``) for a
    region, restoring the original objects on exit."""
    saved = []
    try:
        for module_name, attr, make in bindings:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, make(original))
        yield
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


class EngineProxy:
    """A query engine that times every query it delegates.

    Passed as ``engine=`` to the scheduler; everything but the query
    calls (``stats``, ``name``, ``compiled``, ``new_state``) reaches the
    wrapped engine unchanged.
    """

    def __init__(self, engine, tracer: Tracer) -> None:
        self._engine = engine
        self._fold = tracer.fold

    def __getattr__(self, name: str):
        return getattr(self._engine, name)

    # Explicit timing rather than a context manager: these calls take
    # microseconds, so the wrapper's own cost has to stay small.
    def try_reserve(self, state, class_name, cycle):
        started = time.perf_counter()
        try:
            return self._engine.try_reserve(state, class_name, cycle)
        finally:
            self._fold("engine.query", time.perf_counter() - started)

    def try_reserve_many(self, state, class_name, cycles):
        started = time.perf_counter()
        try:
            return self._engine.try_reserve_many(state, class_name, cycles)
        finally:
            self._fold("engine.query", time.perf_counter() - started)

    def probe_window(self, state, class_name, lo, hi):
        started = time.perf_counter()
        try:
            return self._engine.probe_window(state, class_name, lo, hi)
        finally:
            self._fold("engine.query", time.perf_counter() - started)

    def release(self, reservation):
        started = time.perf_counter()
        try:
            return self._engine.release(reservation)
        finally:
            self._fold("engine.query", time.perf_counter() - started)


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return name.split(".", 1)[0]


def inclusive(spans: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """``name -> [seconds, calls]`` over spans and folded totals."""
    totals: Dict[str, List[float]] = {}
    for record in spans:
        entry = totals.setdefault(record["name"], [0.0, 0])
        entry[0] += record["end"] - record["start"]
        entry[1] += 1
        for name, (seconds, calls) in record["folded"].items():
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += calls
    return totals


def attr_sum(spans: List[Dict[str, Any]], name: str, key: str) -> float:
    """Sum of one attribute over the spans called ``name``."""
    return sum(
        record["attrs"].get(key, 0) for record in spans
        if record["name"] == name
    )
