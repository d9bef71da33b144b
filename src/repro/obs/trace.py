"""Hierarchical tracing spans.

A span is one timed region of the pipeline -- ``hmdes:parse``,
``transform:time-shift``, ``schedule:list`` -- with attributes attached
as the work discovers them (option-count deltas, backend names, chunk
indexes).  Spans nest through a thread-local stack: entering a span
makes it the parent of every span opened inside it, so the trace of one
CLI invocation is a tree whose shape *is* the pipeline's call structure.

Two extra affordances exist for work whose trace may be thrown away or
moved under another parent:

* :meth:`Tracer.capture` runs a region against a **detached** stack and
  hands back the finished spans as plain dicts -- what a batch chunk
  attempt returns, so a failed attempt's spans are simply dropped, and
  what a server thread hands back to the request that waited on it.
* :meth:`Tracer.attach` grafts such dicts back under the current span.
  The batch driver attaches each successful chunk's trace in chunk
  order, so a recovered run's tree matches a clean run's -- the same
  determinism contract the stats fold has.

Spans can additionally carry :mod:`tracemalloc` memory accounting
(``mem_peak_bytes`` / ``mem_net_bytes`` attributes) when opened with
``memory=True`` *and* memory profiling is enabled process-wide (see
:func:`repro.obs.enable_memory`).  Memory frames nest on their own
per-thread stack so a child's allocation peak propagates into every
enclosing memory span, even though ``tracemalloc`` only exposes a
single global peak.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from typing import Any, Dict, List, Optional


class Span:
    """One timed, attributed region; a node in the trace tree."""

    __slots__ = ("name", "attrs", "children", "seconds", "start_ts", "_t0")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.seconds: float = 0.0
        self.start_ts: float = 0.0
        self._t0: float = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (size deltas, counts, outcomes)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start_ts,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        span = cls(data["name"], data.get("attrs"))
        span.start_ts = float(data.get("start", 0.0))
        span.seconds = float(data.get("seconds", 0.0))
        span.children = [
            cls.from_dict(child) for child in data.get("children", ())
        ]
        return span

    def walk(self):
        """This span, then every descendant, depth-first in order."""
        yield self
        for child in self.children:
            for span in child.walk():
                yield span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.seconds * 1000:.2f}ms, "
            f"{len(self.children)} child(ren))"
        )


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled.

    One module-level instance serves every call site: ``__enter__``
    returns itself, ``set`` discards, iteration yields nothing.  The
    disabled fast path is therefore one flag test and one identity
    return -- no allocation, no clock read.
    """

    __slots__ = ()

    name = ""
    attrs: Dict[str, Any] = {}
    children: List[Span] = []
    seconds = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __repr__(self) -> str:
        return "NullSpan()"


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that pushes/pops one span on the tracer."""

    __slots__ = ("_tracer", "span", "_memory")

    def __init__(
        self, tracer: "Tracer", span: Span, memory: bool = False
    ) -> None:
        self._tracer = tracer
        self.span = span
        self._memory = memory

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        if self._memory:
            self._tracer._mem_enter()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        if self._memory:
            self._tracer._mem_exit(self.span)
        self._tracer._pop(self.span)


class _Capture:
    """Detached trace context; ``spans`` holds the finished dicts."""

    __slots__ = ("_tracer", "_saved", "spans")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._saved: Optional[List[Span]] = None
        self.spans: List[Dict[str, Any]] = []

    def __enter__(self) -> "_Capture":
        local = self._tracer._local
        self._saved = getattr(local, "stack", None)
        local.stack = [Span("<capture>")]
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        local = self._tracer._local
        root = local.stack[0]
        self.spans = [span.to_dict() for span in root.children]
        if self._saved is None:
            del local.stack
        else:
            local.stack = self._saved


class _NullCapture:
    """Disabled-mode stand-in: collects nothing, costs nothing."""

    __slots__ = ()

    spans: List[Dict[str, Any]] = []

    def __enter__(self) -> "_NullCapture":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


NULL_CAPTURE = _NullCapture()


#: Finished roots a tracer keeps; the oldest go first.  A long-running
#: process (``repro serve`` grafts one tree per request) would otherwise
#: hold every trace it ever recorded.
MAX_ROOTS = 1000


class Tracer:
    """Per-thread span stacks plus the shared list of finished roots.

    ``roots`` keeps the newest :data:`MAX_ROOTS` trees.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: List[Span] = []
        #: Whether a memory span of this tracer started ``tracemalloc``.
        self._started_tracemalloc = False

    # ------------------------------------------------------------------
    # Stack plumbing
    # ------------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        span.start_ts = time.time()
        span._t0 = time.perf_counter()
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.seconds = time.perf_counter() - span._t0
        stack = self._stack()
        # Tolerate a mismatched pop (a generator suspended mid-span)
        # rather than corrupting the whole tree.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        else:
            self._add_roots([span])

    # ------------------------------------------------------------------
    # Memory frames (tracemalloc peak/net accounting per span)
    # ------------------------------------------------------------------

    def _mem_stack(self) -> List[List[int]]:
        stack = getattr(self._local, "memstack", None)
        if stack is None:
            stack = []
            self._local.memstack = stack
        return stack

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        current, _ = tracemalloc.get_traced_memory()
        # Frame: [bytes traced at entry, running absolute peak].  The
        # running peak folds in child frames' peaks, because
        # ``reset_peak`` below erases the global peak on every
        # enter/exit boundary.
        self._mem_stack().append([current, current])
        tracemalloc.reset_peak()

    def _mem_exit(self, span: Span) -> None:
        stack = self._mem_stack()
        if not stack:
            return
        current, peak = tracemalloc.get_traced_memory()
        entry, running_peak = stack.pop()
        peak_abs = max(running_peak, peak, current)
        span.attrs["mem_net_bytes"] = current - entry
        span.attrs["mem_peak_bytes"] = max(0, peak_abs - entry)
        if stack:
            parent = stack[-1]
            parent[1] = max(parent[1], peak_abs)
        tracemalloc.reset_peak()

    def stop_memory(self) -> None:
        """Stop ``tracemalloc`` if a memory span of this tracer started it.

        Tracing someone else started (``-X tracemalloc``, a caller's own
        ``tracemalloc.start()``) is left running.
        """
        if self._started_tracemalloc:
            self._started_tracemalloc = False
            tracemalloc.stop()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def span(self, name: str, memory: bool = False, **attrs: Any) -> _ActiveSpan:
        """Open a child of the current span (or a new root).

        With ``memory=True`` the span also records ``tracemalloc``
        peak/net bytes for its region into ``mem_peak_bytes`` /
        ``mem_net_bytes`` attributes.
        """
        return _ActiveSpan(self, Span(name, attrs), memory=memory)

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def capture(self) -> _Capture:
        """Trace a region detached from the ambient stack."""
        return _Capture(self)

    def attach(self, span_dicts: List[Dict[str, Any]]) -> None:
        """Graft captured span dicts under the current span (or roots)."""
        spans = [Span.from_dict(data) for data in span_dicts]
        current = self.current()
        if current is not None:
            current.children.extend(spans)
        else:
            self._add_roots(spans)

    def _add_roots(self, spans: List[Span]) -> None:
        with self._lock:
            self.roots.extend(spans)
            del self.roots[:-MAX_ROOTS]

    def reset(self) -> None:
        """Drop finished roots and this thread's stacks."""
        with self._lock:
            self.roots = []
        if getattr(self._local, "stack", None) is not None:
            del self._local.stack
        if getattr(self._local, "memstack", None) is not None:
            del self._local.memstack

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def walk(self):
        """Every finished span, depth-first across the roots."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            for span in root.walk():
                yield span

    def seconds_by_name(self) -> Dict[str, float]:
        """Total wall seconds per span name, across the whole trace."""
        totals: Dict[str, float] = {}
        for span in self.walk():
            totals[span.name] = totals.get(span.name, 0.0) + span.seconds
        return totals
